// Command hipstr-top is a live terminal console for a running hipstr-run
// or hipstr-fleet observability server: it polls /stats.json, /history,
// /incidents, /tenants and /readyz and renders fleet gauges,
// sparkline-style metric history, open incidents, and the top-K offender
// tenants — plain ANSI, no dependencies, one process to watch a fleet.
//
// Counter series render as per-second rates when prefixed with "rate:"
// in -series (the default list uses it for respawns and breaches);
// unprefixed series plot raw sampled values. Series the server does not
// know are skipped, so one default list works against both a fleet host
// and a single VM.
//
// Usage:
//
//	hipstr-top [-addr 127.0.0.1:9121] [-interval 2s] [-series a,rate:b]
//	           [-n 10] [-width 48] [-once]
//
// -once renders a single frame without clearing the screen (scripts, CI).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"hipstr/internal/health"
	"hipstr/internal/obsrv"
	"hipstr/internal/telemetry"
)

// defaultSeries covers both hosts: fleet gauges and rates when a fleet is
// attached, DBT/translation pressure when watching a single VM.
const defaultSeries = "fleet.active,fleet.rps,rate:fleet.respawns,rate:fleet.breaches,fleet.injector_depth," +
	"rate:dbt.security_events,rate:machine.blockcache.evicted"

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: it parses args and renders a frame to stdout
// every interval until ctx is canceled. With -once it renders one frame
// and a failed fetch is its error; otherwise a failed fetch is reported
// on stderr and the next tick tries again.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("hipstr-top", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9121", "observability server address (hipstr-fleet/hipstr-run -listen)")
	interval := fs.Duration("interval", 2*time.Second, "poll/refresh interval")
	series := fs.String("series", defaultSeries, "comma-separated history series to sparkline (prefix rate: for per-second deltas)")
	topN := fs.Int("n", 10, "top-K tenants to list")
	width := fs.Int("width", 48, "sparkline width in samples")
	once := fs.Bool("once", false, "render one frame and exit (no screen clearing)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cl := &client{base: "http://" + *addr, http: &http.Client{Timeout: 5 * time.Second}}
	specs := parseSeries(*series)

	render := func() error {
		frame, err := cl.frame(specs, *topN, *width)
		if err != nil {
			return err
		}
		out := renderFrame(frame, *width, *topN)
		if !*once {
			out = "\x1b[H\x1b[2J" + out // home + clear
		}
		_, err = io.WriteString(stdout, out)
		return err
	}

	if *once {
		return render()
	}
	if *interval <= 0 {
		return fmt.Errorf("-interval %v: must be positive", *interval)
	}
	tick := time.NewTicker(*interval)
	defer tick.Stop()
	for {
		if err := render(); err != nil {
			fmt.Fprintf(os.Stderr, "hipstr-top: %v\n", err)
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			fmt.Fprintln(stdout)
			return nil
		}
	}
}

// seriesSpec is one sparkline request: a history series, optionally
// rendered as a per-second rate.
type seriesSpec struct {
	name string
	rate bool
}

func parseSeries(s string) []seriesSpec {
	var out []seriesSpec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		spec := seriesSpec{name: part}
		if rest, ok := strings.CutPrefix(part, "rate:"); ok {
			spec = seriesSpec{name: rest, rate: true}
		}
		out = append(out, spec)
	}
	return out
}

// frame is everything one refresh renders, fetched up front so a slow
// endpoint can't tear the display mid-draw.
type frame struct {
	addr      string
	now       time.Time
	ready     string
	stats     telemetry.Snapshot
	statsOK   bool
	history   map[string][]health.Point // by spec label
	specs     []seriesSpec
	incidents *health.IncidentList
	tenants   []obsrv.TenantInfo
}

// client fetches the observability endpoints, treating 404s (no fleet,
// no health engine) as absent sections rather than errors.
type client struct {
	base string
	http *http.Client
}

func (c *client) getJSON(path string, into any) (bool, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		return false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return false, fmt.Errorf("%s: %s", path, resp.Status)
	}
	return true, json.NewDecoder(resp.Body).Decode(into)
}

func (c *client) frame(specs []seriesSpec, topN, width int) (*frame, error) {
	f := &frame{addr: c.base, now: time.Now(), specs: specs, history: map[string][]health.Point{}}

	if resp, err := c.http.Get(c.base + "/readyz"); err != nil {
		return nil, err // liveness probe: if this fails, nothing else will work
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		f.ready = strings.TrimSpace(strings.SplitN(string(body), "\n", 2)[0])
	}

	ok, err := c.getJSON("/stats.json", &f.stats)
	if err != nil {
		return nil, err
	}
	f.statsOK = ok

	if len(specs) > 0 {
		names := make([]string, 0, len(specs))
		for _, s := range specs {
			names = append(names, s.name)
		}
		var q health.QueryResult
		// Rate series need one extra sample to difference away.
		if ok, err := c.getJSON("/history?series="+strings.Join(names, ",")+
			fmt.Sprintf("&points=%d", width+1), &q); err != nil {
			return nil, err
		} else if ok {
			bySeries := map[string][]health.Point{}
			for _, s := range q.Series {
				bySeries[s.Name] = s.Points
			}
			for _, spec := range specs {
				f.history[spec.label()] = spec.transform(bySeries[spec.name], width)
			}
		}
	}

	var il health.IncidentList
	if ok, err := c.getJSON("/incidents", &il); err != nil {
		return nil, err
	} else if ok {
		f.incidents = &il
	}

	var tl struct {
		Count   int                `json:"count"`
		Tenants []obsrv.TenantInfo `json:"tenants"`
	}
	if ok, err := c.getJSON("/tenants", &tl); err != nil {
		return nil, err
	} else if ok {
		f.tenants = tl.Tenants
	}
	return f, nil
}

func (s seriesSpec) label() string {
	if s.rate {
		return s.name + "/s"
	}
	return s.name
}

// transform windows the raw points to width samples, differencing
// counters into per-second rates (reset-safe) when the spec asks for it.
func (s seriesSpec) transform(pts []health.Point, width int) []health.Point {
	if s.rate {
		var out []health.Point
		for i := 1; i < len(pts); i++ {
			dt := float64(pts[i].TimeNS-pts[i-1].TimeNS) / 1e9
			if dt <= 0 {
				continue
			}
			d := pts[i].Value - pts[i-1].Value
			if d < 0 { // counter reset
				d = pts[i].Value
			}
			out = append(out, health.Point{TimeNS: pts[i].TimeNS, Value: d / dt})
		}
		pts = out
	}
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	return pts
}

// sparkline renders values into block-element glyphs scaled min..max.
// A flat series renders mid-height so "constant 1000" and "constant 0"
// don't look identical to an empty line.
func sparkline(pts []health.Point, width int) string {
	const ramp = "▁▂▃▄▅▆▇█"
	if len(pts) == 0 {
		return strings.Repeat(" ", width)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		lo = math.Min(lo, p.Value)
		hi = math.Max(hi, p.Value)
	}
	var b strings.Builder
	for _, p := range pts {
		i := 3 // flat series midpoint
		if hi > lo {
			i = int((p.Value - lo) / (hi - lo) * 7)
		}
		b.WriteString(string([]rune(ramp)[i]))
	}
	for n := len(pts); n < width; n++ {
		b.WriteByte(' ')
	}
	return b.String()
}

// renderFrame lays the frame out as one string (pure, unit-testable).
func renderFrame(f *frame, width, topN int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hipstr-top — %s — %s — %s\n\n",
		f.addr, f.now.Format("15:04:05"), f.ready)

	if f.statsOK {
		g, c := f.stats.Gauges, f.stats.Counters
		if _, fleet := g["fleet.active"]; fleet {
			fmt.Fprintf(&b, "fleet   active %v (peak %v)  workers %v  rps %.1f  p99 %.1fms  injector %v\n",
				fmtN(g["fleet.active"]), fmtN(g["fleet.active_peak"]), fmtN(g["fleet.workers"]),
				g["fleet.rps"], g["fleet.latency_p99_us"]/1000, fmtN(g["fleet.injector_depth"]))
			fmt.Fprintf(&b, "tenants admitted %d  done %d  killed %d  |  breaches %d  respawns %d  migrations %d\n",
				c["fleet.admitted"], c["fleet.completed"], c["fleet.killed"],
				c["fleet.breaches"], c["fleet.respawns"], c["fleet.migrations"])
		} else {
			fmt.Fprintf(&b, "vm      translations x86 %d / arm %d  migrations %d  security events %d  blk-hit %.1f%%\n",
				c["dbt.translations.x86"], c["dbt.translations.arm"],
				c["dbt.migrations"], c["dbt.security_events"],
				100*g["machine.blockcache.hit_ratio"])
		}
		b.WriteByte('\n')
	}

	drew := false
	for _, spec := range f.specs {
		pts := f.history[spec.label()]
		if len(pts) == 0 {
			continue
		}
		last := pts[len(pts)-1].Value
		fmt.Fprintf(&b, "%-28s %s %s\n", spec.label(), sparkline(pts, width), fmtN(last))
		drew = true
	}
	if drew {
		b.WriteByte('\n')
	}

	if il := f.incidents; il != nil {
		fmt.Fprintf(&b, "incidents  open %d  opened %d  resolved %d\n", il.Open, il.Opened, il.Resolved)
		// Open incidents first, then most recent resolved.
		incs := append([]health.IncidentSummary(nil), il.Incidents...)
		sort.SliceStable(incs, func(i, j int) bool {
			if oi, oj := incs[i].State == "open", incs[j].State == "open"; oi != oj {
				return oi
			}
			return incs[i].OpenedNS > incs[j].OpenedNS
		})
		max := 6
		for i, inc := range incs {
			if i >= max {
				fmt.Fprintf(&b, "  … %d more\n", len(incs)-max)
				break
			}
			fmt.Fprintf(&b, "  [%s] #%d %-20s %8s  peak %s  (%s)\n",
				strings.ToUpper(inc.State), inc.ID, inc.Rule,
				(time.Duration(inc.DurationMS) * time.Millisecond).Round(time.Millisecond),
				fmtN(inc.Peak), inc.Condition)
		}
		b.WriteByte('\n')
	}

	if len(f.tenants) > 0 && topN > 0 {
		rows := append([]obsrv.TenantInfo(nil), f.tenants...)
		sort.SliceStable(rows, func(i, j int) bool {
			if ri, rj := rows[i].Fields["respawns"], rows[j].Fields["respawns"]; ri != rj {
				return ri > rj
			}
			return rows[i].Fields["steps"] > rows[j].Fields["steps"]
		})
		if len(rows) > topN {
			rows = rows[:topN]
		}
		fmt.Fprintf(&b, "top tenants (%d of %d, by respawns then steps)\n", len(rows), len(f.tenants))
		fmt.Fprintf(&b, "  %-8s %-12s %-8s %12s %9s %11s\n", "id", "workload", "state", "steps", "respawns", "latency ms")
		for _, t := range rows {
			fmt.Fprintf(&b, "  %-8s %-12s %-8s %12.0f %9.0f %11.1f\n",
				t.ID, t.Workload, t.State,
				t.Fields["steps"], t.Fields["respawns"], t.Fields["latency_us"]/1000)
		}
	}
	return b.String()
}

// fmtN renders a float that is usually an integral count without the
// trailing noise, keeping decimals only when they carry information.
func fmtN(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.2f", v)
}
