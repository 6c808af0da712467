package report

import (
	"fmt"
	"strings"

	"repro/internal/textplot"
)

// Format names one of the pluggable renderers.
type Format string

// Registered formats.
const (
	FormatText Format = "text"
	FormatJSON Format = "json"
	FormatCSV  Format = "csv"
)

// Formats lists every registered format.
var Formats = []Format{FormatText, FormatJSON, FormatCSV}

// Ext returns the artifact file extension of the format ("txt", "json",
// "csv").
func (f Format) Ext() string {
	if f == FormatText {
		return "txt"
	}
	return string(f)
}

// contentTypes maps formats to HTTP media types.
var contentTypes = map[Format]string{
	FormatText: "text/plain; charset=utf-8",
	FormatJSON: "application/json",
	FormatCSV:  "text/csv; charset=utf-8",
}

// ContentType returns the HTTP media type a format is served with.
func ContentType(f Format) string { return contentTypes[f] }

// FormatError reports an unparseable format spelling together with the
// full accepted vocabulary — every entry point (CLI flags, file
// extensions, query parameters, Accept negotiation) fails with the same
// structured error, and the HTTP layer's JSON error envelope embeds
// Accepted verbatim so clients can self-correct.
type FormatError struct {
	// Got is the rejected spelling.
	Got string
	// Accepted lists every accepted spelling: the canonical format names
	// plus the "txt" extension alias.
	Accepted []string
}

// AcceptedFormats returns every spelling ParseFormat accepts, canonical
// names first.
func AcceptedFormats() []string { return []string{"text", "json", "csv", "txt"} }

// Error implements error.
func (e *FormatError) Error() string {
	return fmt.Sprintf("report: unknown format %q (known: %s)", e.Got, strings.Join(e.Accepted, ", "))
}

// ParseFormat resolves a -format flag, query value or file extension. All
// spellings are case-insensitive, and the extension "txt" is accepted
// everywhere as an alias for "text" — the CLI, the file names WriteDir
// derives from Ext, and the /v1 query parameters all share this one
// parser. Failure returns a *FormatError listing the accepted spellings.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "txt", "text":
		return FormatText, nil
	case "json":
		return FormatJSON, nil
	case "csv":
		return FormatCSV, nil
	}
	return "", &FormatError{Got: s, Accepted: AcceptedFormats()}
}

// Render renders the document in the given format.
func Render(d Doc, f Format) (string, error) {
	switch f {
	case FormatText:
		return RenderText(d), nil
	case FormatJSON:
		return RenderJSON(d)
	case FormatCSV:
		return RenderCSV(d)
	}
	return "", fmt.Errorf("report: unknown format %q", f)
}

// RenderText renders the document as plain text on the textplot backend.
// Blocks are concatenated without implicit separators — the document's Note
// blocks carry all inter-block whitespace — so a driver's Doc reproduces its
// historical Render() output byte for byte.
func RenderText(d Doc) string {
	out := ""
	for _, bl := range d.Blocks {
		switch {
		case bl.Table != nil:
			out += textTable(bl.Table)
		case bl.Series != nil:
			out += textSeries(bl.Series)
		case bl.Timeline != nil:
			out += textTimeline(bl.Timeline)
		case bl.Dist != nil:
			out += textDist(bl.Dist)
		case bl.Note != nil:
			out += bl.Note.Text
		}
	}
	return out
}

func textTable(t *Table) string {
	tb := textplot.NewTable(t.Title, t.Headers...)
	for _, row := range t.Rows {
		cells := make([]any, len(row))
		for i, c := range row {
			cells[i] = c.Text()
		}
		tb.AddRow(cells...)
	}
	return tb.String()
}

func textSeries(s *Series) string {
	if s.Kind == Bar {
		bc := textplot.NewBarChart(s.Title)
		bc.Unit = s.Unit
		if s.Width > 0 {
			bc.Width = s.Width
		}
		// Guard mismatched label/value lengths (reachable via ParseJSON of
		// externally supplied documents) instead of panicking mid-render.
		n := len(s.Labels)
		if len(s.Values) < n {
			n = len(s.Values)
		}
		for i := 0; i < n; i++ {
			bc.Add(s.Labels[i], float64(s.Values[i]))
		}
		return bc.String()
	}
	pl := textplot.NewPlot(s.Title, s.XLabel, s.YLabel)
	if s.Cols > 0 {
		pl.Cols = s.Cols
	}
	if s.Rows > 0 {
		pl.Rows = s.Rows
	}
	for _, l := range s.Lines {
		x, y := l.X, l.Y
		// Same guard as the bar branch: never panic on a parsed document.
		if len(x) > len(y) {
			x = x[:len(y)]
		} else if len(y) > len(x) {
			y = y[:len(x)]
		}
		pl.Add(l.Name, floats(x), floats(y))
	}
	return pl.String()
}

func textTimeline(t *Timeline) string {
	pl := textplot.NewPlot(t.Title, t.XLabel, t.YLabel)
	if t.Rows > 0 {
		pl.Rows = t.Rows
	}
	for _, l := range t.Lines {
		xs := make([]float64, len(l.Values))
		for i := range xs {
			xs[i] = float64(i)
		}
		pl.Add(l.Name, xs, floats(l.Values))
	}
	return pl.String()
}

func textDist(d *Dist) string {
	return textplot.Box(d.Label,
		float64(d.Min), float64(d.Q1), float64(d.Median), float64(d.Q3), float64(d.Max),
		float64(d.Lo), float64(d.Hi), d.Width) + "\n"
}

func floats(xs []Float) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}
