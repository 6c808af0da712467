// Package report is the typed artifact document model that decouples the
// experiment drivers' measurements from their presentation. Each driver
// reduces its result to a Doc — an ordered list of Table, Series, Timeline,
// Dist and Note blocks whose cells carry machine-readable values plus the
// formatting rule that reproduces the paper's human-readable form — and the
// pluggable renderers turn the same Doc into plain text (byte-identical to
// the historical Render() output, with textplot as the text backend), JSON
// (lossless: the document unmarshals back into an equal Doc) or CSV.
//
// On top of the renderers, Store memoizes one render per (platform,
// artifact, format) triple and writes artifact directories; the /v1 HTTP
// API (internal/api) serves from it — computation happens once,
// presentation is a lookup.
package report

import (
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/textplot"
	"repro/internal/units"
)

// Float is a float64 payload that survives JSON round-trips even when
// non-finite: NaN and the infinities — which encoding/json rejects — are
// encoded as the strings "NaN", "+Inf" and "-Inf".
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = Float(math.NaN())
		return nil
	case `"+Inf"`:
		*f = Float(math.Inf(1))
		return nil
	case `"-Inf"`:
		*f = Float(math.Inf(-1))
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Floats converts a float64 slice to the JSON-safe Float representation.
func Floats(xs []float64) []Float {
	if xs == nil {
		return nil
	}
	out := make([]Float, len(xs))
	for i, x := range xs {
		out[i] = Float(x)
	}
	return out
}

// Doc is one complete artifact document: the machine-readable form of a
// table or figure, composed of ordered presentation blocks.
type Doc struct {
	// Artifact is the artifact id, e.g. "figure9".
	Artifact string `json:"artifact"`
	// Platform is the scenario the artifact was computed on ("" when the
	// producer did not say; Store stamps the platform it fetched under).
	Platform string  `json:"platform,omitempty"`
	Blocks   []Block `json:"blocks"`
}

// New returns an empty document for the given artifact id.
func New(artifact string) *Doc { return &Doc{Artifact: artifact} }

// Append adds blocks in order and returns the doc for chaining.
func (d *Doc) Append(blocks ...Block) *Doc {
	d.Blocks = append(d.Blocks, blocks...)
	return d
}

// Block is one document block. Exactly one field is non-nil.
type Block struct {
	Table    *Table    `json:"table,omitempty"`
	Series   *Series   `json:"series,omitempty"`
	Timeline *Timeline `json:"timeline,omitempty"`
	Dist     *Dist     `json:"dist,omitempty"`
	Note     *Note     `json:"note,omitempty"`
}

// Table is an aligned table of units-aware cells.
type Table struct {
	Title   string   `json:"title,omitempty"`
	Headers []string `json:"headers,omitempty"`
	Rows    [][]Cell `json:"rows"`
}

// NewTable returns an empty table block.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Row appends one row of cells.
func (t *Table) Row(cells ...Cell) { t.Rows = append(t.Rows, cells) }

// Block wraps the table for Doc.Append.
func (t *Table) Block() Block { return Block{Table: t} }

// SeriesKind selects how a Series block renders.
type SeriesKind string

// Series kinds.
const (
	// Line is an x/y scatter of one or more named lines (a textplot.Plot).
	Line SeriesKind = "line"
	// Bar is a labeled horizontal bar chart (a textplot.BarChart).
	Bar SeriesKind = "bar"
)

// Series is a plotted dataset: either named x/y lines or labeled bars.
type Series struct {
	Title string     `json:"title,omitempty"`
	Kind  SeriesKind `json:"kind"`
	// XLabel/YLabel/Cols/Rows configure line plots (zero means the text
	// renderer's defaults).
	XLabel string       `json:"xlabel,omitempty"`
	YLabel string       `json:"ylabel,omitempty"`
	Cols   int          `json:"cols,omitempty"`
	Rows   int          `json:"rows,omitempty"`
	Lines  []SeriesLine `json:"lines,omitempty"`
	// Unit/Width/Labels/Values configure bar charts.
	Unit   string   `json:"unit,omitempty"`
	Width  int      `json:"width,omitempty"`
	Labels []string `json:"labels,omitempty"`
	Values []Float  `json:"values,omitempty"`
}

// SeriesLine is one named line of a line-kind Series.
type SeriesLine struct {
	Name string  `json:"name"`
	X    []Float `json:"x"`
	Y    []Float `json:"y"`
}

// NewLinePlot returns an empty line-kind series block.
func NewLinePlot(title, xlabel, ylabel string) *Series {
	return &Series{Title: title, Kind: Line, XLabel: xlabel, YLabel: ylabel}
}

// AddLine appends one named line. X and Y must be the same length.
func (s *Series) AddLine(name string, x, y []float64) {
	if len(x) != len(y) {
		panic("report: series line length mismatch")
	}
	s.Lines = append(s.Lines, SeriesLine{Name: name, X: Floats(x), Y: Floats(y)})
}

// NewBarChart returns an empty bar-kind series block.
func NewBarChart(title, unit string) *Series {
	return &Series{Title: title, Kind: Bar, Unit: unit}
}

// AddBar appends one labeled bar.
func (s *Series) AddBar(label string, value float64) {
	s.Labels = append(s.Labels, label)
	s.Values = append(s.Values, Float(value))
}

// Block wraps the series for Doc.Append.
func (s *Series) Block() Block { return Block{Series: s} }

// Timeline is one or more named per-step value sequences (the x axis is the
// step index).
type Timeline struct {
	Title  string         `json:"title,omitempty"`
	XLabel string         `json:"xlabel,omitempty"`
	YLabel string         `json:"ylabel,omitempty"`
	Rows   int            `json:"rows,omitempty"`
	Lines  []TimelineLine `json:"lines"`
}

// TimelineLine is one named value sequence.
type TimelineLine struct {
	Name   string  `json:"name"`
	Values []Float `json:"values"`
}

// Block wraps the timeline for Doc.Append.
func (t *Timeline) Block() Block { return Block{Timeline: t} }

// Dist is a five-number distribution summary rendered as one
// box-and-whisker line scaled to the [Lo, Hi] axis range.
type Dist struct {
	Label  string `json:"label"`
	Min    Float  `json:"min"`
	Q1     Float  `json:"q1"`
	Median Float  `json:"median"`
	Q3     Float  `json:"q3"`
	Max    Float  `json:"max"`
	Lo     Float  `json:"lo"`
	Hi     Float  `json:"hi"`
	Width  int    `json:"width,omitempty"`
}

// Block wraps the dist for Doc.Append.
func (d *Dist) Block() Block { return Block{Dist: d} }

// Note is verbatim presentation text: summary lines and the whitespace glue
// between blocks. The text renderer emits Text unchanged; the CSV renderer
// skips notes.
type Note struct {
	Text string `json:"text"`
}

// NoteBlock returns a note block with the given verbatim text.
func NoteBlock(text string) Block { return Block{Note: &Note{Text: text}} }

// Gap is the canonical one-blank-line separator between blocks.
func Gap() Block { return NoteBlock("\n") }

// Kind selects a cell's payload field and text formatting rule.
type Kind string

// Cell kinds.
const (
	// KindStr renders S verbatim; Vals optionally carries the numeric
	// payload of composite cells (e.g. "97.5% balanced").
	KindStr Kind = "str"
	// KindInt renders I in decimal (with optional Prefix/Suffix).
	KindInt Kind = "int"
	// KindUint renders U in decimal.
	KindUint Kind = "uint"
	// KindNum renders V the way textplot renders raw float64 cells
	// (integers plainly, everything else with three significant digits).
	KindNum Kind = "num"
	// KindFixed renders V with Prec decimals (plus optional Prefix/Suffix),
	// e.g. Prec 3 -> "1.234", Suffix "%" -> "12.3%".
	KindFixed Kind = "fixed"
	// KindPercent renders the ratio V via units.Percent ("%.1f%%" of V*100).
	KindPercent Kind = "pct"
	// KindBytes renders U via units.Bytes ("1.50 GiB").
	KindBytes Kind = "bytes"
	// KindFlops renders V via units.Flops ("2.50 Gflop/s").
	KindFlops Kind = "flops"
	// KindBandwidth renders V via units.Bandwidth ("34.00 GB/s").
	KindBandwidth Kind = "bw"
	// KindSeconds renders V via units.Seconds ("1.23 ms").
	KindSeconds Kind = "sec"
)

// Cell is one units-aware table cell: a typed value plus the formatting
// rule that reproduces the paper's printed form.
type Cell struct {
	Kind   Kind    `json:"k"`
	S      string  `json:"s,omitempty"`
	V      Float   `json:"v,omitempty"`
	I      int64   `json:"i,omitempty"`
	U      uint64  `json:"u,omitempty"`
	Prec   int     `json:"prec,omitempty"`
	Prefix string  `json:"pre,omitempty"`
	Suffix string  `json:"suf,omitempty"`
	Vals   []Float `json:"vals,omitempty"`
}

// Str returns a verbatim text cell; vals optionally attaches the numeric
// payload of a composite cell so machine consumers need not re-parse text.
func Str(s string, vals ...float64) Cell {
	return Cell{Kind: KindStr, S: s, Vals: Floats(vals)}
}

// Int returns a decimal integer cell.
func Int(n int) Cell { return Cell{Kind: KindInt, I: int64(n)} }

// Uint returns a decimal unsigned-integer cell.
func Uint(n uint64) Cell { return Cell{Kind: KindUint, U: n} }

// Num returns an auto-formatted float cell (textplot's raw-float rule).
func Num(v float64) Cell { return Cell{Kind: KindNum, V: Float(v)} }

// Fixed returns a fixed-precision float cell ("%.<prec>f").
func Fixed(v float64, prec int) Cell {
	return Cell{Kind: KindFixed, V: Float(v), Prec: prec}
}

// FixedSuffix returns a fixed-precision float cell with a unit suffix, e.g.
// FixedSuffix(12.3, 1, "%") -> "12.3%" and FixedSuffix(1.25, 2, "x") -> "1.25x".
func FixedSuffix(v float64, prec int, suffix string) Cell {
	return Cell{Kind: KindFixed, V: Float(v), Prec: prec, Suffix: suffix}
}

// Pct returns a ratio cell rendered as a percentage (units.Percent).
func Pct(ratio float64) Cell { return Cell{Kind: KindPercent, V: Float(ratio)} }

// Bytes returns a byte-count cell (units.Bytes).
func Bytes(n uint64) Cell { return Cell{Kind: KindBytes, U: n} }

// Flops returns a flop-rate cell (units.Flops).
func Flops(v float64) Cell { return Cell{Kind: KindFlops, V: Float(v)} }

// Bandwidth returns a byte-rate cell (units.Bandwidth).
func Bandwidth(v float64) Cell { return Cell{Kind: KindBandwidth, V: Float(v)} }

// Seconds returns a duration cell (units.Seconds).
func Seconds(v float64) Cell { return Cell{Kind: KindSeconds, V: Float(v)} }

// Text renders the cell's human-readable form — the exact string the
// pre-pipeline drivers printed.
func (c Cell) Text() string {
	switch c.Kind {
	case KindInt:
		return c.Prefix + strconv.FormatInt(c.I, 10) + c.Suffix
	case KindUint:
		return c.Prefix + strconv.FormatUint(c.U, 10) + c.Suffix
	case KindNum:
		return c.Prefix + textplot.TrimFloat(float64(c.V)) + c.Suffix
	case KindFixed:
		return c.Prefix + strconv.FormatFloat(float64(c.V), 'f', c.Prec, 64) + c.Suffix
	case KindPercent:
		return units.Percent(float64(c.V))
	case KindBytes:
		return units.Bytes(c.U)
	case KindFlops:
		return units.Flops(float64(c.V))
	case KindBandwidth:
		return units.Bandwidth(float64(c.V))
	case KindSeconds:
		return units.Seconds(float64(c.V))
	}
	return c.S
}

// Value renders the cell's machine-readable form for CSV: integers in
// decimal, floats in shortest round-trippable form (non-finite values as
// "NaN"/"+Inf"/"-Inf", all of which strconv.ParseFloat accepts), strings
// verbatim.
func (c Cell) Value() string {
	switch c.Kind {
	case KindInt:
		return strconv.FormatInt(c.I, 10)
	case KindUint, KindBytes:
		return strconv.FormatUint(c.U, 10)
	case KindNum, KindFixed, KindPercent, KindFlops, KindBandwidth, KindSeconds:
		return strconv.FormatFloat(float64(c.V), 'g', -1, 64)
	}
	return c.S
}
