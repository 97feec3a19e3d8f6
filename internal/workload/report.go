package workload

import (
	"runtime"
	"runtime/debug"
)

// Env records where a report was taken.
type Env struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
}

// Report is fdaload's JSON output document: what was asked for (Spec
// or Trace) and what came back (Load, whose Kinds carry every per-kind
// count and latency figure).
type Report struct {
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	Env    Env    `json:"env"`
	// Spec echoes the generated workload (nil for trace replays).
	Spec *Spec `json:"spec,omitempty"`
	// Trace names the replayed trace source, when replaying.
	Trace string `json:"trace,omitempty"`
	// Load is the run's aggregate statistics.
	Load RunStats `json:"load"`
}

// BuildReport assembles the output document: environment metadata and
// the run's stats.
func BuildReport(spec *Spec, stats RunStats) Report {
	rep := Report{
		GoOS: runtime.GOOS, GoArch: runtime.GOARCH,
		Env: Env{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Spec: spec,
		Load: stats,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rep.Env.VCSRevision = s.Value
			case "vcs.modified":
				rep.Env.VCSModified = s.Value == "true"
			}
		}
	}
	return rep
}
