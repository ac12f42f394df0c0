package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The goldens pin the program's outputs at seed 1 and full size. A change
// that alters them changes what the program computes, not how fast: it
// must be deliberate, and is recorded by regenerating them with
//
//	go run . -update-goldens
//
// from this directory (see README.md).
//
//go:embed testdata
var testdata embed.FS

// guestGolden is one guest workload's per-job outcome at seed 1: the PSR
// seed the warm-up kept and the job's exact work and simulated cycles.
type guestGolden struct {
	Jobs map[string]goldenJob `json:"jobs"`
}

type goldenJob struct {
	Seed int64 `json:"seed"`
	jobRun
}

// check compares each job's warm-up run with the golden, counting every
// mismatch or missing entry as a failed operation.
func (g *guestGolden) check(jobs []*guestJob, rec *recorder) {
	if len(g.Jobs) != len(jobs) {
		rec.fail("golden lists %d jobs, the workload has %d", len(g.Jobs), len(jobs))
	}
	for _, j := range jobs {
		want, ok := g.Jobs[j.name]
		switch {
		case !ok:
			rec.fail("golden: no entry for %s", j.name)
		case want.Seed != j.seed || !want.sameWork(j.ref):
			rec.fail("golden: %s seed %d ran %d steps, %d instrs, %v cycles; golden seed %d, %d, %d, %v",
				j.name, j.seed, j.ref.Steps, j.ref.Instrs, j.ref.Cycles,
				want.Seed, want.Steps, want.Instrs, want.Cycles)
		}
	}
}

func guestGoldenOf(jobs []*guestJob) *guestGolden {
	g := &guestGolden{Jobs: map[string]goldenJob{}}
	for _, j := range jobs {
		g.Jobs[j.name] = goldenJob{Seed: j.seed, jobRun: j.ref}
	}
	return g
}

// fleetGolden is fleet-mixed's outcome at seed 1: the open-loop phase's
// fold at each checkpoint it reaches, and one drain batch's fold with its
// respawn and kill counts.
type fleetGolden struct {
	Open  map[string]string `json:"open"`
	Drain drainGolden       `json:"drain"`
}

type drainGolden struct {
	Fold     string `json:"fold"`
	Respawns int    `json:"respawns"`
	Killed   int    `json:"killed"`
}

func (g *fleetGolden) check(open, drain *folder, rec *recorder) {
	for n, sum := range open.prefix {
		if want, ok := g.Open[strconv.Itoa(n)]; ok && want != sum {
			rec.fail("golden: open-loop fold after %d tenants is %s, golden %s", n, sum, want)
		}
	}
	got := drainGolden{Fold: drain.sum(), Respawns: drain.respawns, Killed: drain.killed}
	if got != g.Drain {
		rec.fail("golden: drain batch %+v, golden %+v", got, g.Drain)
	}
}

func fleetGoldenOf(open, drain *folder) *fleetGolden {
	g := &fleetGolden{Open: map[string]string{}, Drain: drainGolden{Fold: drain.sum(), Respawns: drain.respawns, Killed: drain.killed}}
	for n, sum := range open.prefix {
		g.Open[strconv.Itoa(n)] = sum
	}
	return g
}

// loadGolden decodes testdata/<name> into v.
func loadGolden(name string, v any) error {
	b, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		return err
	}
	if s, ok := v.(*string); ok {
		*s = strings.TrimSpace(string(b))
		return nil
	}
	return json.Unmarshal(b, v)
}

// writeGolden writes v to testdata/<name> in the source tree: bench/ when
// run from the repository root, or the current directory.
func writeGolden(name string, v any) error {
	dir := "testdata"
	if _, err := os.Stat(filepath.Join("bench", dir)); err == nil {
		dir = filepath.Join("bench", dir)
	}
	var b []byte
	if s, ok := v.(string); ok {
		b = []byte(s + "\n")
	} else {
		var err error
		if b, err = json.MarshalIndent(v, "", "  "); err != nil {
			return err
		}
		b = append(b, '\n')
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s\n", path)
	return nil
}
