package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain runs main instead of the tests when FDAGATE_MAIN_ARGS is set,
// so a test can start the command as a child process and read its exit
// status and output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FDAGATE_MAIN_ARGS"); ok {
		os.Args = append([]string{"fdagate"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagRefusals: a flag fdagate cannot run with ends it before it
// polls a replica or listens, with one line on stderr and a nonzero
// exit. A -max-pending of zero or below used to become 1024 silently.
func TestFlagRefusals(t *testing.T) {
	for _, c := range []struct{ args, flag string }{
		{"-max-pending 0", "-max-pending"},
		{"-max-pending -5", "-max-pending"},
		{"-poll 0s", "-poll"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, os.Args[0])
		cmd.Env = append(os.Environ(), "FDAGATE_MAIN_ARGS=-addr 127.0.0.1:0 -replicas http://127.0.0.1:1 "+c.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		switch msg := stderr.String(); {
		case timedOut:
			t.Errorf("fdagate %s was still running after 10 s", c.args)
		case err == nil:
			t.Errorf("fdagate %s exited 0", c.args)
		case strings.Count(msg, "\n") != 1 || !strings.Contains(msg, c.flag):
			t.Errorf("fdagate %s: stderr %q, want one line naming %s", c.args, msg, c.flag)
		}
	}
}
