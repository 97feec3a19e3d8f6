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

// TestMain runs main instead of the tests when FDASERVE_MAIN_ARGS is set,
// so a test can start the command as a child process and read its exit
// status and output.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FDASERVE_MAIN_ARGS"); ok {
		os.Args = append([]string{"fdaserve"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestAdmissionCapRefusedAtStartup: a negative -max-queue ends fdaserve
// before it opens its store or listens, with one line on stderr and a
// nonzero exit. It used to start unbounded and report a max_queue of -1.
func TestAdmissionCapRefusedAtStartup(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "FDASERVE_MAIN_ARGS=-addr 127.0.0.1:0 -store "+t.TempDir()+" -max-queue -1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	if ctx.Err() != nil {
		t.Fatal("fdaserve -max-queue -1 was still running after 10 s")
	}
	if err == nil {
		t.Fatal("fdaserve -max-queue -1 exited 0")
	}
	if msg := stderr.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, "-max-queue") {
		t.Fatalf("stderr %q, want one line naming -max-queue", msg)
	}
}
