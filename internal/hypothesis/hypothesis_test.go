package hypothesis

import (
	"strings"
	"testing"
)

func TestRegistryContainsShippedHypotheses(t *testing.T) {
	want := []string{
		"h1-soft-cdv-utilization",
		"h2-overload-degradation-storm",
		"h3-capacity-vs-topology",
	}
	all := Hypotheses()
	if len(all) != len(want) {
		t.Fatalf("registry holds %d hypotheses, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q (sorted by name)", i, all[i].Name, name)
		}
		h, ok := LookupHypothesis(name)
		if !ok {
			t.Fatalf("LookupHypothesis(%q) missed", name)
		}
		if h.Statement == "" || h.Family == "" || len(h.Controlled) == 0 ||
			h.Varied == "" || h.Postmortem == "" {
			t.Errorf("%s: incomplete declaration %+v", name, h)
		}
		if len(h.Seeds) < 3 {
			t.Errorf("%s: %d seeds, want >= 3", name, len(h.Seeds))
		}
	}
}

func TestParseScale(t *testing.T) {
	if s, err := ParseScale("smoke"); err != nil || s != ScaleSmoke {
		t.Errorf("ParseScale(smoke) = %v, %v", s, err)
	}
	if s, err := ParseScale("full"); err != nil || s != ScaleFull {
		t.Errorf("ParseScale(full) = %v, %v", s, err)
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Error("ParseScale accepted an unknown scale")
	}
}

// TestHypothesesConfirmedAtSmoke is the predicate-regression gate CI runs:
// every registered hypothesis must run from its fixed seeds and every
// machine-checked predicate must pass.
func TestHypothesesConfirmedAtSmoke(t *testing.T) {
	for _, h := range Hypotheses() {
		h := h
		t.Run(h.Name, func(t *testing.T) {
			rep, err := RunHypothesis(h, ScaleSmoke)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !rep.Confirmed() {
				t.Fatalf("falsified:\n  %s", strings.Join(rep.FailedChecks(), "\n  "))
			}
		})
	}
}

// TestFindingsDeterministic pins the reproducibility contract of the
// committed artifacts: two runs at the same scale render byte-identical
// FINDINGS.md documents.
func TestFindingsDeterministic(t *testing.T) {
	for _, h := range Hypotheses() {
		h := h
		t.Run(h.Name, func(t *testing.T) {
			render := func() string {
				rep, err := RunHypothesis(h, ScaleSmoke)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				var b strings.Builder
				if err := rep.WriteFindings(&b); err != nil {
					t.Fatalf("render: %v", err)
				}
				return b.String()
			}
			a, b := render(), render()
			if a != b {
				t.Fatal("two identical runs rendered different FINDINGS.md")
			}
			for _, want := range []string{
				"# " + h.Title,
				"- **Status**: CONFIRMED",
				"## Hypothesis",
				"## Experiment Design",
				"## Results",
				"## Checks",
				h.Statement,
			} {
				if !strings.Contains(a, want) {
					t.Errorf("FINDINGS.md missing %q", want)
				}
			}
			if strings.Contains(a, "## Postmortem") {
				t.Error("confirmed report carries a postmortem section")
			}
		})
	}
}

// TestFindingsFalsifiedRendersPostmortem exercises the falsified path with
// a synthetic hypothesis, without needing a real experiment to regress.
func TestFindingsFalsifiedRendersPostmortem(t *testing.T) {
	h := &Hypothesis{
		Name:       "synthetic",
		Title:      "Synthetic: always falsified",
		Statement:  "this claim is wrong by construction",
		Family:     "harness-test",
		Controlled: []string{"nothing"},
		Varied:     "nothing",
		Seeds:      []uint64{7},
		Postmortem: "the harness is under test",
		Run: func(Scale, uint64) (SeedResult, error) {
			return SeedResult{
				Metrics: []Metric{{Name: "x", Value: 1.5}},
				Checks:  []Check{{Name: "always-fails", Pass: false, Detail: "by design"}},
			}, nil
		},
	}
	rep, err := RunHypothesis(h, ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Confirmed() {
		t.Fatal("synthetic hypothesis confirmed")
	}
	var b strings.Builder
	if err := rep.WriteFindings(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"- **Status**: FALSIFIED",
		"## Postmortem",
		"the harness is under test",
		"seed 7 / always-fails: by design",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("falsified FINDINGS.md missing %q", want)
		}
	}
	if got := rep.FailedChecks(); len(got) != 1 {
		t.Errorf("FailedChecks = %v, want exactly one entry", got)
	}
}

func TestWriteFindingsFile(t *testing.T) {
	h, _ := LookupHypothesis("h1-soft-cdv-utilization")
	rep, err := RunHypothesis(h, ScaleSmoke)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path, err := rep.WriteFindingsFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "h1-soft-cdv-utilization/FINDINGS.md") {
		t.Errorf("unexpected artifact path %q", path)
	}
}
