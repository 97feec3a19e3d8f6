package workload

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func specFixture(seed uint64) Spec {
	return Spec{
		Arrival:     Arrival{Process: "poisson", Rate: 100},
		DurationSec: 10,
		Seed:        seed,
		Mix: []MixEntry{
			{Kind: KindTrain, Weight: 1, Train: &TrainTemplate{Model: "lenet5s", Strategy: "LinearFDA", Steps: 10, SeedBase: 100}},
			{Kind: KindStatus, Weight: 3},
			{Kind: KindStore, Weight: 1},
		},
	}
}

// TestScheduleParity pins the determinism contract: the same spec and
// seed produce a byte-identical trace serialization on every call, and
// a different seed produces a different one.
func TestScheduleParity(t *testing.T) {
	hdr := TraceHeader{Source: "test"}
	render := func(seed uint64) []byte {
		reqs, err := specFixture(seed).Schedule()
		if err != nil {
			t.Fatalf("Schedule: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, hdr, reqs); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		return buf.Bytes()
	}
	a, b := render(42), render(42)
	if !bytes.Equal(a, b) {
		t.Fatal("same spec+seed produced different trace bytes")
	}
	if c := render(43); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical trace bytes")
	}
}

// TestScheduleMixProportions checks that kind counts follow the mix
// weights (train:status:store = 1:3:1 here).
func TestScheduleMixProportions(t *testing.T) {
	spec := specFixture(7)
	spec.Arrival.Rate = 500
	reqs, err := spec.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	counts := map[Kind]float64{}
	for _, r := range reqs {
		counts[r.Kind]++
	}
	n := float64(len(reqs))
	for kind, wantFrac := range map[Kind]float64{KindTrain: 0.2, KindStatus: 0.6, KindStore: 0.2} {
		frac := counts[kind] / n
		if frac < wantFrac-0.05 || frac > wantFrac+0.05 {
			t.Errorf("kind %s: fraction %.3f of %d requests, want %.2f +/- 0.05", kind, frac, len(reqs), wantFrac)
		}
	}
}

// TestScheduleSeedVariation checks the cohort seeding: by default each
// train submission carries a distinct seed (so the server's dedupe
// never collapses the load), and DedupeSeeds pins them all.
func TestScheduleSeedVariation(t *testing.T) {
	spec := specFixture(9)
	reqs, err := spec.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	seen := map[uint64]bool{}
	trains := 0
	for _, r := range reqs {
		if r.Kind != KindTrain {
			continue
		}
		trains++
		var body struct {
			Seed uint64 `json:"seed"`
		}
		if err := json.Unmarshal(r.Body, &body); err != nil {
			t.Fatalf("train body: %v", err)
		}
		if seen[body.Seed] {
			t.Fatalf("duplicate train seed %d without DedupeSeeds", body.Seed)
		}
		seen[body.Seed] = true
	}
	if trains < 10 {
		t.Fatalf("only %d train requests generated; fixture too small", trains)
	}

	spec.Mix[0].Train.DedupeSeeds = true
	reqs, err = spec.Schedule()
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	for _, r := range reqs {
		if r.Kind != KindTrain {
			continue
		}
		var body struct {
			Seed uint64 `json:"seed"`
		}
		if err := json.Unmarshal(r.Body, &body); err != nil {
			t.Fatalf("train body: %v", err)
		}
		if body.Seed != spec.Mix[0].Train.SeedBase {
			t.Fatalf("DedupeSeeds train seed %d, want pinned %d", body.Seed, spec.Mix[0].Train.SeedBase)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := specFixture(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("fixture spec rejected: %v", err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.DurationSec = 0 },
		func(s *Spec) { s.Mix = nil },
		func(s *Spec) { s.Mix[0].Kind = "bogus" },
		func(s *Spec) { s.Mix[0].Weight = -1 },
		func(s *Spec) { s.Mix[0].Train = nil },
		func(s *Spec) {
			for i := range s.Mix {
				s.Mix[i].Weight = 0
			}
		},
		func(s *Spec) { s.Arrival.Rate = 0 },
		// Templates whose every request the server's parser would refuse.
		func(s *Spec) { s.Mix[0].Train.Model = "nosuch" },
		func(s *Spec) { s.Mix[0].Train.Tau = -1 },
		func(s *Spec) {
			s.Mix = append(s.Mix, MixEntry{Kind: KindSweep, Weight: 1, Sweep: &SweepTemplate{Experiment: "nosuch"}})
		},
	}
	for i, mutate := range cases {
		s := specFixture(1)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted an invalid spec", i)
		}
	}
}

// TestParseSpecStrict: a spec that names a key the grammar does not
// define, at any depth, or carries data after its value is refused
// with the offending key or the trailing data named; the same spec
// spelled correctly parses.
func TestParseSpecStrict(t *testing.T) {
	const good = `{"arrival":{"process":"poisson","rate":40},"duration_sec":2,"seed":1,` +
		`"mix":[{"kind":"train","weight":1,"train":{"model":"lenet5s","strategy":"LinearFDA","steps":10}},` +
		`{"kind":"status","weight":4}]}`
	if _, err := ParseSpec(strings.NewReader(good + "\n")); err != nil {
		t.Fatalf("well-formed spec refused: %v", err)
	}
	cases := []struct {
		name, spec, want string
	}{
		{"top-level key", strings.Replace(good, `"seed":1`, `"seed":1,"durration_sec":9`, 1), `"durration_sec"`},
		{"arrival key", strings.Replace(good, `"rate":40`, `"rate":40,"on":1`, 1), `"on"`},
		{"template key", strings.Replace(good, `"steps":10`, `"step":10`, 1), `"step"`},
		{"trailing garbage", good + `}`, "trailing data"},
		{"second value", good + good, "trailing data"},
		{"invalid spec", strings.Replace(good, `"rate":40`, `"rate":0`, 1), "rate must be positive"},
	}
	for _, c := range cases {
		_, err := ParseSpec(strings.NewReader(c.spec))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %s", c.name, err, c.want)
		}
	}
}
