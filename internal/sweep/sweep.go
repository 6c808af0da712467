// Package sweep is the parameter-sweep campaign engine: it turns the fixed
// scenario registry into an unbounded scenario *generator* and runs the
// paper's headline analyses over the whole grid.
//
// A campaign is declared, not coded: a Grid is a base scenario plus a set
// of Axes (link generation, added link latency, bandwidth scale, local
// capacity fraction), and its cross-product derives one scenario.Spec per
// cell with a generated canonical name such as "gen=5,frac=0.25". A Runner
// fans the Level-2/Level-3/scheduling pipeline out across every
// (cell, workload) pair through the shared internal/pool limiter — each
// cell seeded by its grid coordinates via stats.SeedAt, never by worker or
// completion order — and streams finished cells into an Aggregator. The
// campaign reduces to two report.Doc artifacts: "sweep" (the long-form
// per-cell table, CSV-friendly) and "sensitivity" (per-axis marginal
// deltas against the base system plus the best/worst frontier cells).
//
// This answers the question the paper's single testbed cannot: how do the
// pooling verdicts shift as the interconnect generation, link latency,
// bandwidth and capacity split change — not at five hand-picked points,
// but over the whole design grid.
package sweep

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/scenario"
)

// AxisNames lists the supported axis names in canonical order: "gen"
// (interconnect generation), "lat" (added link latency in ns), "bw" (link
// bandwidth scale factor) and "frac" (local capacity fraction).
var AxisNames = []string{"gen", "lat", "bw", "frac"}

// ErrInvalid marks every request-validation failure of this package —
// malformed axis declarations, unknown axis names, inadmissible values,
// oversized grids. Every error returned by ParseAxis, Axis.Validate and
// Grid.Validate matches errors.Is(err, ErrInvalid), so callers on a
// request boundary (the HTTP layer, repro.Service.Sweep) classify a
// client mistake without string matching. This is the single shared
// validation layer: the library and the HTTP API enforce exactly the same
// caps because they run exactly the same validator.
var ErrInvalid = errors.New("sweep: invalid request")

// invalidError is a validation failure: its message is the specific
// diagnostic, it matches ErrInvalid under errors.Is, and it unwraps to any
// error the diagnostic was built around (%w verbs work).
type invalidError struct{ err error }

func (e *invalidError) Error() string        { return e.err.Error() }
func (e *invalidError) Unwrap() error        { return e.err }
func (e *invalidError) Is(target error) bool { return target == ErrInvalid }

// invalidf builds a validation error (matching ErrInvalid) with the given
// diagnostic; %w wraps like fmt.Errorf.
func invalidf(format string, args ...any) error {
	return &invalidError{err: fmt.Errorf(format, args...)}
}

// MaxAxisValues bounds one axis's value count. It is enforced by
// validation (which every entry point — Runner.RunContext, the HTTP API,
// the CLI — goes through), so a typo'd range ("lat=0:1e12:1") fails fast
// instead of allocating an astronomically sized campaign.
//
// MaxSyncGridCells bounds the campaigns a single *synchronous* request may
// compute — the GET /v1/sweep route, whose lifetime is one HTTP request.
// It is not a library limit: Grid.Validate accepts any cross-product size,
// and grids above the cap run through the asynchronous job manager (POST
// /v1/jobs, `memdis jobs submit`), which checkpoints cells as they finish
// and survives restarts.
const (
	MaxAxisValues    = 1024
	MaxSyncGridCells = 4096
)

// CheckSyncSize enforces the synchronous request-boundary cell cap: grids
// above MaxSyncGridCells are a validation error (matching ErrInvalid, so
// the HTTP layer maps it to a 400) whose message points the caller at the
// job manager. Asynchronous entry points never call it.
func CheckSyncSize(g Grid) error {
	if n := g.Size(); n > MaxSyncGridCells {
		return invalidf("sweep: grid has %d cells (max %d for a synchronous request; submit big grids as jobs: POST /v1/jobs or `memdis jobs submit`)",
			n, MaxSyncGridCells)
	}
	return nil
}

// Axis is one swept dimension of a campaign grid: a named parameter and
// the ordered list of values it takes. The supported names are:
//
//   - "gen":  interconnect generation. 0 keeps the base scenario's link;
//     4, 5 and 6 substitute the CXL-on-PCIe generation presets
//     (see LinkGenerations).
//   - "lat":  extra link latency in nanoseconds, added on top of the link
//     selected so far (so a "gen" axis earlier in the grid composes).
//   - "bw":   link bandwidth scale factor, multiplying both the payload
//     bandwidth and the peak raw traffic of the link selected so far.
//   - "frac": local capacity fraction in (0,1); collapses the cell's
//     capacity protocol to that single split (Spec.WithCapacitySplit).
type Axis struct {
	// Name is the axis name ("gen", "lat", "bw" or "frac").
	Name string
	// Values are the swept values in sweep order.
	Values []float64
}

// ParseAxis parses a command-line axis declaration of the form
// "name=v1,v2,..." or "name=lo:hi:step" (an inclusive range). Examples:
//
//	gen=0,5,6
//	frac=0.25:0.75:0.25   // 0.25, 0.50, 0.75
//	lat=0:400:100         // 0, 100, 200, 300, 400 ns added latency
func ParseAxis(s string) (Axis, error) {
	name, spec, ok := strings.Cut(s, "=")
	if !ok || name == "" || spec == "" {
		return Axis{}, invalidf("sweep: axis %q: want name=v1,v2,... or name=lo:hi:step", s)
	}
	a := Axis{Name: name}
	if parts := strings.Split(spec, ":"); len(parts) == 3 {
		lo, err1 := strconv.ParseFloat(parts[0], 64)
		hi, err2 := strconv.ParseFloat(parts[1], 64)
		step, err3 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return Axis{}, invalidf("sweep: axis %q: malformed lo:hi:step range", s)
		}
		// Negated comparisons so a NaN endpoint or step fails the guard
		// (NaN compares false either way around, so `step <= 0 || hi < lo`
		// would wave it through into the point-count arithmetic).
		if !(step > 0) || !(hi >= lo) {
			return Axis{}, invalidf("sweep: axis %q: want lo <= hi and step > 0", s)
		}
		// Count the points instead of accumulating lo += step, so binary
		// floating-point steps (0.25:0.75:0.25) still land on hi exactly.
		// Reject oversized ranges before allocating anything: this parser
		// sits on the HTTP surface.
		pts := math.Floor((hi-lo)/step + 1e-9)
		if pts >= MaxAxisValues {
			return Axis{}, invalidf("sweep: axis %q: range yields %.0f values (max %d)", s, pts+1, MaxAxisValues)
		}
		n := int(pts)
		for i := 0; i <= n; i++ {
			a.Values = append(a.Values, lo+float64(i)*step)
		}
		return a, a.Validate()
	}
	for _, p := range strings.Split(spec, ",") {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return Axis{}, invalidf("sweep: axis %q: bad value %q", s, p)
		}
		a.Values = append(a.Values, v)
	}
	return a, a.Validate()
}

// Validate checks the axis name is known and every value is admissible for
// that axis.
func (a Axis) Validate() error {
	if len(a.Values) == 0 {
		return invalidf("sweep: axis %q has no values", a.Name)
	}
	if len(a.Values) > MaxAxisValues {
		return invalidf("sweep: axis %q has %d values (max %d)", a.Name, len(a.Values), MaxAxisValues)
	}
	for _, v := range a.Values {
		switch a.Name {
		case "gen":
			if v != 0 {
				if _, ok := LinkGenerations[int(v)]; !ok || v != math.Trunc(v) {
					return invalidf("sweep: axis gen: unknown generation %v (known: 0=base, %s)",
						v, generationList())
				}
			}
		case "lat":
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return invalidf("sweep: axis lat: added latency %v ns must be finite and >= 0", v)
			}
		case "bw":
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return invalidf("sweep: axis bw: bandwidth scale %v must be finite and > 0", v)
			}
		case "frac":
			if !(v > 0 && v < 1) {
				return invalidf("sweep: axis frac: capacity fraction %v outside (0,1)", v)
			}
		default:
			return invalidf("sweep: unknown axis %q (known: %s)", a.Name, strings.Join(AxisNames, ", "))
		}
	}
	return nil
}

// LinkGen is one interconnect-generation preset for the "gen" axis: the
// link constants of a CXL memory pool behind the named PCIe generation,
// mirroring the hand-written cxl-gen5/cxl-gen6 scenario registry entries.
type LinkGen struct {
	// Description names the modeled interconnect.
	Description string
	// DataBandwidth and PeakTraffic are the payload and raw link peaks in
	// bytes/s; Latency is the unloaded access latency in seconds; Overhead
	// is the protocol (flit) overhead multiplier.
	DataBandwidth, PeakTraffic, Latency, Overhead float64
}

// LinkGenerations maps a "gen" axis value to its link preset. Generation 0
// is not listed: it means "keep the base scenario's link". Generations 5
// and 6 are pulled from the cxl-gen5/cxl-gen6 scenario registry entries at
// init, so recalibrating a registry link automatically recalibrates the
// corresponding sweep cells; only generation 4 (which has no registry
// scenario) is defined here.
var LinkGenerations = map[int]LinkGen{
	4: {
		Description:   "CXL 1.1 pool on PCIe 4.0 x8",
		DataBandwidth: 13e9, PeakTraffic: 31e9, Latency: 450e-9, Overhead: 1.30,
	},
}

func init() {
	for _, p := range []struct {
		gen  int
		name string
	}{{5, "cxl-gen5"}, {6, "cxl-gen6"}} {
		sp, err := scenario.Get(p.name)
		if err != nil {
			panic(fmt.Sprintf("sweep: generation preset scenario missing: %v", err))
		}
		l := sp.Platform.Link
		LinkGenerations[p.gen] = LinkGen{
			Description:   sp.Description,
			DataBandwidth: l.DataBandwidth, PeakTraffic: l.PeakTraffic,
			Latency: l.Latency, Overhead: l.Overhead,
		}
	}
}

// generationList renders the known generation numbers for error messages.
func generationList() string {
	gens := make([]int, 0, len(LinkGenerations))
	for g := range LinkGenerations {
		gens = append(gens, g)
	}
	sort.Ints(gens)
	parts := make([]string, len(gens))
	for i, g := range gens {
		parts[i] = strconv.Itoa(g)
	}
	return strings.Join(parts, ", ")
}

// Grid is a declarative sweep campaign: a base scenario and the axes whose
// cross-product generates the swept scenarios. Axes apply in order, so a
// "lat" or "bw" axis modifies the link a preceding "gen" axis selected.
type Grid struct {
	// Base is the unswept reference system; every cell derives from it and
	// the campaign's deltas are measured against it.
	Base scenario.Spec
	// Axes are the swept dimensions, outermost first (the last axis varies
	// fastest in Points order).
	Axes []Axis
}

// DefaultGrid returns the canonical two-axis campaign on the given base:
// interconnect generation (base link, CXL gen5, CXL gen6) crossed with the
// paper's three local-capacity fractions — the "how do the pooling results
// shift with the CXL generation and the capacity split" question as a grid.
func DefaultGrid(base scenario.Spec) Grid {
	return Grid{
		Base: base,
		Axes: []Axis{
			{Name: "gen", Values: []float64{0, 5, 6}},
			{Name: "frac", Values: []float64{0.25, 0.50, 0.75}},
		},
	}
}

// Validate checks the axes (known names, admissible values, no duplicate
// axis) and every derived cell spec (via scenario.Spec.Validate), so an
// invalid campaign fails before any cell runs.
func (g Grid) Validate() error {
	if err := g.Base.Validate(); err != nil {
		return invalidf("sweep: base: %w", err)
	}
	seen := map[string]bool{}
	for _, a := range g.Axes {
		if err := a.Validate(); err != nil {
			return err
		}
		if seen[a.Name] {
			return invalidf("sweep: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	pts, err := g.Points()
	if err != nil {
		return err
	}
	for _, p := range pts {
		if err := p.Spec.Validate(); err != nil {
			return invalidf("sweep: cell %s: %w", p.Name(), err)
		}
	}
	return nil
}

// Size returns the number of grid cells (the product of the axis lengths).
func (g Grid) Size() int {
	n := 1
	for _, a := range g.Axes {
		n *= len(a.Values)
	}
	return n
}

// Key returns a canonical one-line description of the grid — base name
// plus every axis with its values — usable as a cache key and shown in
// artifact headers.
func (g Grid) Key() string {
	parts := []string{"base=" + g.Base.Name}
	for _, a := range g.Axes {
		vals := make([]string, len(a.Values))
		for i, v := range a.Values {
			vals[i] = formatValue(v)
		}
		parts = append(parts, a.Name+"="+strings.Join(vals, ","))
	}
	return strings.Join(parts, " ")
}

// Coord is one axis coordinate of a grid cell.
type Coord struct {
	// Axis is the axis name; Value is the cell's value on it.
	Axis  string
	Value float64
}

// Point is one generated grid cell: the derived scenario spec plus the
// coordinates that produced it.
type Point struct {
	// Spec is the fully derived scenario (generated canonical name, axis
	// deltas applied to the base platform and capacity protocol).
	Spec scenario.Spec
	// Coords are the cell's axis coordinates in grid axis order.
	Coords []Coord
}

// Name returns the cell's canonical name: comma-joined axis=value pairs in
// grid axis order, e.g. "gen=5,frac=0.25".
func (p Point) Name() string {
	parts := make([]string, len(p.Coords))
	for i, c := range p.Coords {
		parts[i] = c.Axis + "=" + formatValue(c.Value)
	}
	return strings.Join(parts, ",")
}

// formatValue renders an axis value canonically (shortest round-trippable
// float form, so names are stable and unambiguous).
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Points generates the grid cells in row-major order (the last axis varies
// fastest), deriving each cell's spec from the base by applying the axes in
// order. The generated specs keep the base platform's name, so cells whose
// coordinates produce identical physics (e.g. the same "gen" at different
// "frac") share profiler caches; the cell identity lives in Spec.Name.
func (g Grid) Points() ([]Point, error) {
	pts := make([]Point, 0, g.Size())
	idx := make([]int, len(g.Axes))
	for {
		p := Point{Spec: g.Base}
		for ai, a := range g.Axes {
			v := a.Values[idx[ai]]
			sp, err := applyAxis(p.Spec, a.Name, v)
			if err != nil {
				return nil, err
			}
			p.Spec = sp
			p.Coords = append(p.Coords, Coord{Axis: a.Name, Value: v})
		}
		if len(p.Coords) > 0 {
			p.Spec = p.Spec.Renamed(p.Name())
		}
		pts = append(pts, p)
		// Odometer increment, last axis fastest.
		ai := len(idx) - 1
		for ; ai >= 0; ai-- {
			idx[ai]++
			if idx[ai] < len(g.Axes[ai].Values) {
				break
			}
			idx[ai] = 0
		}
		if ai < 0 {
			return pts, nil
		}
	}
}

// applyAxis derives a spec one axis coordinate at a time.
func applyAxis(sp scenario.Spec, axis string, v float64) (scenario.Spec, error) {
	switch axis {
	case "gen":
		if v == 0 {
			return sp, nil // keep the base link
		}
		lg, ok := LinkGenerations[int(v)]
		if !ok || v != math.Trunc(v) {
			return sp, invalidf("sweep: unknown link generation %v", v)
		}
		sp.Platform = sp.Platform.WithLink(sp.Platform.Link.
			WithBandwidth(lg.DataBandwidth, lg.PeakTraffic).
			WithLatency(lg.Latency).
			WithOverhead(lg.Overhead))
		return sp, nil
	case "lat":
		sp.Platform = sp.Platform.WithLink(sp.Platform.Link.
			WithLatency(sp.Platform.Link.Latency + v*1e-9))
		return sp, nil
	case "bw":
		sp.Platform = sp.Platform.WithLink(sp.Platform.Link.
			WithBandwidth(sp.Platform.Link.DataBandwidth*v, sp.Platform.Link.PeakTraffic*v))
		return sp, nil
	case "frac":
		return sp.WithCapacitySplit(v), nil
	}
	return sp, invalidf("sweep: unknown axis %q (known: %s)", axis, strings.Join(AxisNames, ", "))
}
