// Package hypothesis is the registry of falsifiable experiments H1-H3 that
// cmd/atmsim runs and judges.
package hypothesis

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// This file is the falsifiable-hypothesis harness: a registry of
// experiments that each state a claim about the admission-control system,
// declare their controlled variables and seeds, run deterministically, and
// judge themselves with machine-checked predicates. A hypothesis run emits
// a FINDINGS.md so the claim, the design and the evidence travel together
// in the repo, and CI re-runs the predicates so a regression falsifies the
// document instead of silently invalidating it.

// Scale selects how big a hypothesis run is. Smoke keeps CI fast; full is
// the scale the committed FINDINGS.md artifacts are generated at.
type Scale string

// Hypothesis run scales.
const (
	ScaleSmoke Scale = "smoke"
	ScaleFull  Scale = "full"
)

// ParseScale converts a CLI string to a Scale.
func ParseScale(s string) (Scale, error) {
	switch Scale(s) {
	case ScaleSmoke, ScaleFull:
		return Scale(s), nil
	default:
		return "", fmt.Errorf("unknown scale %q (want %q or %q)", s, ScaleSmoke, ScaleFull)
	}
}

// Metric is one named measurement of a hypothesis run. Metrics are ordered
// slices, not maps, so reports render identically on every run.
type Metric struct {
	Name  string
	Value float64
}

// Check is one machine-checked predicate verdict.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// SeedResult is the outcome of one seeded run of a hypothesis.
type SeedResult struct {
	Seed    uint64
	Metrics []Metric
	Checks  []Check
}

// Hypothesis is a registered falsifiable experiment.
type Hypothesis struct {
	// Name is the slug used on the command line and as the artifact
	// directory name, e.g. "h1-soft-cdv-utilization".
	Name string
	// Title is the one-line human heading.
	Title string
	// Statement is the falsifiable claim, quoted verbatim in FINDINGS.md.
	Statement string
	// Family groups related hypotheses, e.g. "admission-control".
	Family string
	// Controlled lists the variables held fixed across the comparison.
	Controlled []string
	// Varied names the single variable the experiment moves.
	Varied string
	// Seeds are the fixed seeds every run uses; determinism is part of the
	// contract, so the same seeds must reproduce the same FINDINGS.md.
	Seeds []uint64
	// Postmortem explains, ahead of time, what a falsification would mean
	// mechanistically. It is emitted only in falsified reports.
	Postmortem string
	// Run executes one seeded trial at the given scale.
	Run func(scale Scale, seed uint64) (SeedResult, error)
}

// Report is the judged outcome of running a hypothesis at one scale.
type Report struct {
	Hypothesis *Hypothesis
	Scale      Scale
	Results    []SeedResult
}

// Confirmed reports whether every predicate passed for every seed.
func (r *Report) Confirmed() bool {
	for _, res := range r.Results {
		for _, c := range res.Checks {
			if !c.Pass {
				return false
			}
		}
	}
	return true
}

// FailedChecks lists every failing predicate as "seed/check: detail".
func (r *Report) FailedChecks() []string {
	var out []string
	for _, res := range r.Results {
		for _, c := range res.Checks {
			if !c.Pass {
				out = append(out, fmt.Sprintf("seed %d / %s: %s", res.Seed, c.Name, c.Detail))
			}
		}
	}
	return out
}

var hypothesisRegistry = map[string]*Hypothesis{}

// Register adds a hypothesis to the registry; duplicate or malformed
// registrations panic, since they are programming errors in init funcs.
func Register(h *Hypothesis) {
	switch {
	case h == nil || h.Name == "" || h.Run == nil || len(h.Seeds) == 0:
		panic("experiments: Register of incomplete hypothesis")
	case hypothesisRegistry[h.Name] != nil:
		panic(fmt.Sprintf("experiments: duplicate hypothesis %q", h.Name))
	}
	hypothesisRegistry[h.Name] = h
}

// Hypotheses returns every registered hypothesis sorted by name.
func Hypotheses() []*Hypothesis {
	out := make([]*Hypothesis, 0, len(hypothesisRegistry))
	for _, h := range hypothesisRegistry {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// LookupHypothesis finds a hypothesis by name.
func LookupHypothesis(name string) (*Hypothesis, bool) {
	h, ok := hypothesisRegistry[name]
	return h, ok
}

// RunHypothesis executes every declared seed at the given scale. A run
// error (as opposed to a failed predicate) aborts: it means the experiment
// could not produce evidence either way.
func RunHypothesis(h *Hypothesis, scale Scale) (*Report, error) {
	rep := &Report{Hypothesis: h, Scale: scale}
	for _, seed := range h.Seeds {
		res, err := h.Run(scale, seed)
		if err != nil {
			return nil, fmt.Errorf("hypothesis %s seed %d: %w", h.Name, seed, err)
		}
		res.Seed = seed
		rep.Results = append(rep.Results, res)
	}
	return rep, nil
}

// WriteFindings renders the report as a FINDINGS.md document. The output
// is a pure function of the report, so re-running at the same seeds and
// scale reproduces the committed artifact byte for byte.
func (r *Report) WriteFindings(w io.Writer) error {
	h := r.Hypothesis
	status := "CONFIRMED"
	if !r.Confirmed() {
		status = "FALSIFIED"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n\n", h.Title)
	fmt.Fprintf(&b, "- **Status**: %s\n", status)
	fmt.Fprintf(&b, "- **Family**: %s\n", h.Family)
	fmt.Fprintf(&b, "- **Scale**: %s\n", r.Scale)
	fmt.Fprintf(&b, "- **Seeds**: %s\n", seedList(h.Seeds))
	fmt.Fprintf(&b, "\n## Hypothesis\n\n> %s\n", h.Statement)
	fmt.Fprintf(&b, "\n## Experiment Design\n\n")
	fmt.Fprintf(&b, "- **Controlled variables**:\n")
	for _, c := range h.Controlled {
		fmt.Fprintf(&b, "  - %s\n", c)
	}
	fmt.Fprintf(&b, "- **Varied variable**: %s\n", h.Varied)
	fmt.Fprintf(&b, "- **Predicates**: every check in the table below must pass for every seed.\n")

	fmt.Fprintf(&b, "\n## Results\n\n")
	if len(r.Results) > 0 {
		fmt.Fprintf(&b, "| Seed |")
		for _, m := range r.Results[0].Metrics {
			fmt.Fprintf(&b, " %s |", m.Name)
		}
		fmt.Fprintf(&b, "\n|---|")
		for range r.Results[0].Metrics {
			fmt.Fprintf(&b, "---|")
		}
		fmt.Fprintf(&b, "\n")
		for _, res := range r.Results {
			fmt.Fprintf(&b, "| %d |", res.Seed)
			for _, m := range res.Metrics {
				fmt.Fprintf(&b, " %s |", formatMetric(m.Value))
			}
			fmt.Fprintf(&b, "\n")
		}
	}

	fmt.Fprintf(&b, "\n## Checks\n\n| Seed | Check | Verdict | Detail |\n|---|---|---|---|\n")
	for _, res := range r.Results {
		for _, c := range res.Checks {
			verdict := "pass"
			if !c.Pass {
				verdict = "FAIL"
			}
			fmt.Fprintf(&b, "| %d | %s | %s | %s |\n", res.Seed, c.Name, verdict, c.Detail)
		}
	}

	if status == "FALSIFIED" {
		fmt.Fprintf(&b, "\n## Postmortem\n\n%s\n\nFailing predicates:\n\n", h.Postmortem)
		for _, f := range r.FailedChecks() {
			fmt.Fprintf(&b, "- %s\n", f)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteFindingsFile writes the report to dir/<name>/FINDINGS.md, creating
// the directory, and returns the path written.
func (r *Report) WriteFindingsFile(dir string) (string, error) {
	sub := filepath.Join(dir, r.Hypothesis.Name)
	if err := os.MkdirAll(sub, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(sub, "FINDINGS.md")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	werr := r.WriteFindings(f)
	cerr := f.Close()
	if werr != nil {
		return "", werr
	}
	return path, cerr
}

func seedList(seeds []uint64) string {
	parts := make([]string, len(seeds))
	for i, s := range seeds {
		parts[i] = fmt.Sprintf("%d", s)
	}
	return strings.Join(parts, ", ")
}

// formatMetric renders counts without decimals and ratios with four
// significant digits, keeping the tables stable and readable.
func formatMetric(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
