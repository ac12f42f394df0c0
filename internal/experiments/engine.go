package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"hipstr/internal/telemetry"
)

// workers returns the effective pool bound.
func (s *Suite) workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// runCell executes one independent unit of a driver's sweep, converting a
// panic into an error so a bad cell fails its experiment, not the process.
func runCell(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: cell %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// runCellSpanned runs one cell under a child span of the experiment's
// parent span, so parallel sweeps are visualizable cell by cell. With
// spans disabled the child is the inert zero Span.
func (s *Suite) runCellSpanned(fn func(int) error, i int) error {
	sp := s.expSpan.StartChild("cell")
	sp.SetDetail(fmt.Sprintf("cell %d", i))
	err := runCell(fn, i)
	if err != nil {
		sp.SetDetail(fmt.Sprintf("cell %d: failed", i))
	}
	sp.End()
	return err
}

// forEach runs fn(0..n-1) on a bounded worker pool. Cells must be
// independent and deterministic given their index; callers collect results
// by index and print after forEach returns, so output never depends on
// scheduling. The first error (lowest index) wins and stops dispatch;
// cancellation of ctx stops dispatch mid-sweep and forEach returns only
// after every in-flight cell has finished, so no goroutines outlive it.
func (s *Suite) forEach(ctx context.Context, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := s.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := s.runCellSpanned(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	idx := make(chan int)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := s.runCellSpanned(fn, i); err != nil {
					errs[i] = err
					cancel()
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-cctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// Result is one experiment's structured output: the rows the driver
// returned, the series the engine published from them, and run metadata.
// It is the JSON result artifact schema.
type Result struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Quick       bool    `json:"quick"`
	Parallel    int     `json:"parallel"`
	Seconds     float64 `json:"seconds"`
	Rows        any     `json:"rows"`
	// Series is Rows flattened by seriesOf: exactly the points published
	// as experiments.<name>.* gauges, so a reader of the artifact can
	// rebuild those gauges without re-deriving the naming.
	Series []telemetry.SeriesPoint `json:"series"`
}

// Options configures an engine run.
type Options struct {
	// ResultsDir, when non-empty, receives one <name>.json Result
	// artifact per experiment (created if missing).
	ResultsDir string
	// ContinueOnError keeps running remaining experiments after a
	// failure; Run then returns the first error alongside the completed
	// results.
	ContinueOnError bool
}

// Run executes exps in registry order against s, timing each, publishing
// rows into s.Telemetry, and writing JSON artifacts per Options. The
// experiments themselves run sequentially — parallelism lives inside each
// driver's cell sweep — so printed output is stable.
func Run(ctx context.Context, s *Suite, exps []Experiment, opts Options) ([]Result, error) {
	if opts.ResultsDir != "" {
		if err := os.MkdirAll(opts.ResultsDir, 0o755); err != nil {
			return nil, fmt.Errorf("experiments: results dir: %w", err)
		}
	}
	tel := s.Telemetry
	var results []Result
	var firstErr error
	for _, e := range exps {
		if err := ctx.Err(); err != nil {
			return results, err
		}
		start := time.Now()
		if tel != nil {
			s.expSpan = tel.StartSpan("experiments", e.Name())
		}
		rows, err := runExperiment(ctx, e, s)
		if err != nil {
			s.expSpan.SetDetail(err.Error())
		}
		s.expSpan.End()
		s.expSpan = telemetry.Span{}
		secs := time.Since(start).Seconds()
		if err != nil {
			tel.Counter("bench.experiments.failed").Inc()
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", e.Name(), err)
			}
			if !opts.ContinueOnError {
				return results, firstErr
			}
			continue
		}
		res := Result{
			Name:        e.Name(),
			Description: e.Description(),
			Quick:       s.Quick,
			Parallel:    s.workers(),
			Seconds:     secs,
			Rows:        rows,
			Series:      seriesOf(rows),
		}
		results = append(results, res)
		tel.Counter("bench.experiments.run").Inc()
		tel.Gauge("bench.seconds." + e.Name()).Set(secs)
		tel.Histogram("bench.experiment_seconds").Observe(secs)
		tel.PublishSeries("experiments."+e.Name(), res.Series)
		if opts.ResultsDir != "" {
			if werr := writeResult(opts.ResultsDir, res); werr != nil && firstErr == nil {
				firstErr = werr
			}
		}
	}
	return results, firstErr
}

// runExperiment invokes one driver with the same panic containment cells
// get: a panic anywhere in the driver fails that experiment, not the run.
func runExperiment(ctx context.Context, e Experiment, s *Suite) (rows any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiments: %s panicked: %v\n%s", e.Name(), r, debug.Stack())
		}
	}()
	return e.Run(ctx, s)
}

// writeResult writes one experiment's JSON artifact.
func writeResult(dir string, res Result) error {
	f, err := os.Create(filepath.Join(dir, res.Name+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seriesOf flattens a driver's rows into telemetry series points: each
// element of a row slice becomes one point labeled by its first string
// field (falling back to the first field's value), with every numeric
// field — scalar, float slice, or float-valued map — exported under its
// lowercased name.
func seriesOf(rows any) []telemetry.SeriesPoint {
	v := reflect.ValueOf(rows)
	if !v.IsValid() {
		return nil
	}
	if v.Kind() != reflect.Slice {
		if p, ok := pointOf(v); ok {
			return []telemetry.SeriesPoint{p}
		}
		return nil
	}
	var pts []telemetry.SeriesPoint
	for i := 0; i < v.Len(); i++ {
		if p, ok := pointOf(v.Index(i)); ok {
			pts = append(pts, p)
		}
	}
	return pts
}

func pointOf(v reflect.Value) (telemetry.SeriesPoint, bool) {
	for v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return telemetry.SeriesPoint{}, false
	}
	pt := telemetry.SeriesPoint{Fields: map[string]float64{}}
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		if !f.IsExported() {
			continue
		}
		name := strings.ToLower(f.Name)
		switch fv.Kind() {
		case reflect.String:
			if pt.Label == "" {
				pt.Label = fv.String()
			}
		case reflect.Bool:
			if fv.Bool() {
				pt.Fields[name] = 1
			} else {
				pt.Fields[name] = 0
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			pt.Fields[name] = float64(fv.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			pt.Fields[name] = float64(fv.Uint())
		case reflect.Float32, reflect.Float64:
			pt.Fields[name] = fv.Float()
		case reflect.Slice:
			if fv.Type().Elem().Kind() == reflect.Float64 {
				for j := 0; j < fv.Len(); j++ {
					pt.Fields[fmt.Sprintf("%s.%d", name, j)] = fv.Index(j).Float()
				}
			}
		case reflect.Map:
			if fv.Type().Elem().Kind() == reflect.Float64 {
				for _, k := range fv.MapKeys() {
					key := strings.ToLower(fmt.Sprint(k.Interface()))
					pt.Fields[name+"."+sanitizeLabel(key)] = fv.MapIndex(k).Float()
				}
			}
		case reflect.Struct:
			if nested, ok := pointOf(fv); ok {
				for fn, val := range nested.Fields {
					pt.Fields[name+"."+fn] = val
				}
			}
		}
	}
	if pt.Label == "" && t.NumField() > 0 {
		// Sweep-point rows (RAT size, cache KB, technique) label by
		// their leading field's value.
		first := v.Field(0)
		if s, ok := first.Interface().(fmt.Stringer); ok {
			pt.Label = s.String()
		} else {
			switch first.Kind() {
			case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
				pt.Label = fmt.Sprint(first.Int())
			case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				pt.Label = fmt.Sprint(first.Uint())
			}
		}
	}
	pt.Label = sanitizeLabel(pt.Label)
	if len(pt.Fields) == 0 {
		return telemetry.SeriesPoint{}, false
	}
	return pt, true
}

// sanitizeLabel keeps metric names clean: spaces and '+' become '-', and
// the dot stays reserved as the hierarchy separator.
func sanitizeLabel(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case ' ', '+', '.', '/':
			return '-'
		}
		return r
	}, s)
}
