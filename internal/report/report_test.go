package report

import (
	"context"
	"encoding/csv"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestCellText pins the formatting rule of every cell kind against the
// strings the pre-pipeline drivers printed.
func TestCellText(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Str("HPL-p1"), "HPL-p1"},
		{Str("97.5% balanced", 0.975), "97.5% balanced"},
		{Int(-3), "-3"},
		{Uint(18446744073709551615), "18446744073709551615"},
		{Num(512), "512"},
		{Num(12.8), "12.8"},
		{Num(5400.0000000000005), "5.4e+03"},
		{Fixed(1.23456, 3), "1.235"},
		{Fixed(10, 0), "10"},
		{FixedSuffix(12.34, 1, "%"), "12.3%"},
		{FixedSuffix(1.25, 2, "x"), "1.25x"},
		{Cell{Kind: KindInt, I: 4, Prefix: "x"}, "x4"},
		{Pct(0.4615), "46.2%"},
		{Bytes(1 << 30), "1.00 GiB"},
		{Flops(2.5e9), "2.50 Gflop/s"},
		{Bandwidth(34e9), "34.00 GB/s"},
		{Seconds(202e-9), "202.00 ns"},
	}
	for _, c := range cases {
		if got := c.cell.Text(); got != c.want {
			t.Errorf("%+v.Text() = %q, want %q", c.cell, got, c.want)
		}
	}
}

// TestCellValue pins the machine-readable CSV form: raw values, shortest
// round-trippable floats, parseable non-finite spellings.
func TestCellValue(t *testing.T) {
	cases := []struct {
		cell Cell
		want string
	}{
		{Pct(0.4615), "0.4615"},
		{Fixed(1.23456, 3), "1.23456"}, // raw value, not the rounded text
		{Bytes(1 << 30), "1073741824"},
		{Int(-3), "-3"},
		{Num(math.NaN()), "NaN"},
		{Num(math.Inf(1)), "+Inf"},
		{Num(math.Inf(-1)), "-Inf"},
		{Str("free text"), "free text"},
	}
	for _, c := range cases {
		if got := c.cell.Value(); got != c.want {
			t.Errorf("%+v.Value() = %q, want %q", c.cell, got, c.want)
		}
	}
}

// testDoc builds a document exercising every block kind.
func testDoc() Doc {
	tb := NewTable("T", "A", "B")
	tb.Row(Str("r1"), Pct(0.5))
	bars := NewBarChart("bars", "%")
	bars.AddBar("x", 10)
	bars.AddBar("yy", 4)
	pl := NewLinePlot("plot", "x", "y")
	pl.AddLine("s1", []float64{0, 1, 2}, []float64{1, 4, 9})
	tl := &Timeline{Title: "tl", XLabel: "step", YLabel: "v", Rows: 8,
		Lines: []TimelineLine{{Name: "on", Values: Floats([]float64{1, 2, 3})}}}
	ds := &Dist{Label: "d", Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5, Lo: 1, Hi: 5, Width: 20}
	return *New("demo").Append(tb.Block(), Gap(), bars.Block(), pl.Block(),
		tl.Block(), ds.Block(), NoteBlock("done\n"))
}

// TestJSONRoundTrip checks RenderJSON/ParseJSON is lossless for a document
// exercising every block kind.
func TestJSONRoundTrip(t *testing.T) {
	d := testDoc()
	out, err := RenderJSON(d)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, back) {
		t.Errorf("round trip drifted:\nbefore %+v\nafter  %+v", d, back)
	}
}

// TestJSONNonFinite checks the Float encoding survives NaN and the
// infinities, which encoding/json rejects natively.
func TestJSONNonFinite(t *testing.T) {
	tb := NewTable("", "v")
	tb.Row(Num(math.NaN()), Num(math.Inf(1)), Num(math.Inf(-1)))
	d := *New("nan").Append(tb.Block())
	out, err := RenderJSON(d)
	if err != nil {
		t.Fatalf("non-finite doc should render: %v", err)
	}
	back, err := ParseJSON(out)
	if err != nil {
		t.Fatal(err)
	}
	row := back.Blocks[0].Table.Rows[0]
	if !math.IsNaN(float64(row[0].V)) {
		t.Errorf("NaN did not round trip: %v", row[0].V)
	}
	if !math.IsInf(float64(row[1].V), 1) || !math.IsInf(float64(row[2].V), -1) {
		t.Errorf("infinities did not round trip: %v %v", row[1].V, row[2].V)
	}
}

// TestCSVParses checks the CSV rendering of every block kind reads back
// with encoding/csv.
func TestCSVParses(t *testing.T) {
	out, err := RenderCSV(testDoc())
	if err != nil {
		t.Fatal(err)
	}
	rd := csv.NewReader(strings.NewReader(out))
	rd.Comment = '#'
	rd.FieldsPerRecord = -1
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v\n%s", err, out)
	}
	if len(recs) == 0 {
		t.Fatal("CSV has no records")
	}
	// The table row's Pct cell must be the raw ratio, not the "50.0%" text.
	found := false
	for _, rec := range recs {
		if len(rec) == 2 && rec[0] == "r1" && rec[1] == "0.5" {
			found = true
		}
	}
	if !found {
		t.Errorf("table row with raw ratio not found in:\n%s", out)
	}
}

// TestRenderTextBlocks pins the text backend block by block.
func TestRenderTextBlocks(t *testing.T) {
	bars := NewBarChart("B", "%")
	bars.AddBar("x", 10)
	d := *New("t").Append(bars.Block(), NoteBlock("note\n"))
	got := RenderText(d)
	want := "B\nx |################################################## 10%\nnote\n"
	if got != want {
		t.Errorf("RenderText = %q, want %q", got, want)
	}
	if s, err := Render(d, FormatText); err != nil || s != got {
		t.Errorf("Render(text) = %q, %v", s, err)
	}
	if _, err := Render(d, Format("yaml")); err == nil {
		t.Error("unknown format should error")
	}
}

// TestStoreMemoizes checks the render-once contract: one source call per
// (platform, artifact), one render per format — and that source errors are
// NOT memoized (see Store.Doc).
func TestStoreMemoizes(t *testing.T) {
	calls := map[string]int{}
	st := NewStore(func(_ context.Context, platform, artifact string) (Doc, error) {
		calls[platform+"/"+artifact]++
		if artifact == "missing" {
			return Doc{}, fmt.Errorf("no such artifact")
		}
		d := testDoc()
		d.Artifact = artifact
		return d, nil
	})
	for i := 0; i < 3; i++ {
		for _, f := range Formats {
			if _, err := st.Artifact(context.Background(), "baseline", "demo", f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if calls["baseline/demo"] != 1 {
		t.Errorf("source called %d times, want 1", calls["baseline/demo"])
	}
	docs, renders := st.Cached()
	if docs != 1 || renders != 3 {
		t.Errorf("cached docs=%d renders=%d, want 1 and 3", docs, renders)
	}
	// The doc is stamped with the platform it was fetched under.
	d, err := st.Doc(context.Background(), "baseline", "demo")
	if err != nil {
		t.Fatal(err)
	}
	if d.Platform != "baseline" {
		t.Errorf("platform not stamped: %q", d.Platform)
	}
	// Errors are deliberately NOT memoized: an unbounded error cache keyed
	// by request-controlled strings would let a misbehaving client grow the
	// store without limit, and unknown ids fail fast in the source.
	for i := 0; i < 2; i++ {
		if _, err := st.Artifact(context.Background(), "baseline", "missing", FormatText); err == nil {
			t.Fatal("missing artifact should error")
		}
	}
	if calls["baseline/missing"] != 2 {
		t.Errorf("error source called %d times, want one per request", calls["baseline/missing"])
	}
	// Put seeds a doc without touching the source.
	seeded := testDoc()
	seeded.Artifact = "seeded"
	st.Put("baseline", seeded)
	if _, err := st.Artifact(context.Background(), "baseline", "seeded", FormatJSON); err != nil {
		t.Fatal(err)
	}
	if calls["baseline/seeded"] != 0 {
		t.Error("Put-seeded artifact should not call the source")
	}
}

// TestStorePutInvalidatesRenders checks a re-Put drops stale renders so
// Doc and Artifact never disagree.
func TestStorePutInvalidatesRenders(t *testing.T) {
	st := NewStore(func(_ context.Context, platform, artifact string) (Doc, error) {
		return Doc{}, fmt.Errorf("source should not be called")
	})
	v1 := *New("a").Append(NoteBlock("v1\n"))
	st.Put("baseline", v1)
	if out, err := st.Artifact(context.Background(), "baseline", "a", FormatText); err != nil || out != "v1\n" {
		t.Fatalf("v1 render: %q, %v", out, err)
	}
	v2 := *New("a").Append(NoteBlock("v2\n"))
	st.Put("baseline", v2)
	if out, err := st.Artifact(context.Background(), "baseline", "a", FormatText); err != nil || out != "v2\n" {
		t.Errorf("render after re-Put: %q, %v (stale cache?)", out, err)
	}
}

// TestRenderTextMalformedSeries checks RenderText degrades gracefully on
// documents with mismatched series lengths (reachable via ParseJSON of
// external input) instead of panicking.
func TestRenderTextMalformedSeries(t *testing.T) {
	d, err := ParseJSON(`{"artifact":"x","blocks":[
		{"series":{"kind":"bar","labels":["a","b"],"values":[1]}},
		{"series":{"kind":"line","lines":[{"name":"s","x":[1,2,3],"y":[1]}]}}]}`)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderText(d) // must not panic
	if !strings.Contains(out, "a |") {
		t.Errorf("truncated bar chart should still render the paired bars:\n%s", out)
	}
	if _, err := RenderCSV(d); err != nil {
		t.Errorf("CSV of malformed series should degrade, not fail: %v", err)
	}
}

// TestStorePutDuringRender pins the generation guard behind the
// Doc/Artifact agreement: a Put landing between an in-flight Artifact's
// document fetch and its render-cache write bumps the generation, which is
// exactly the condition Artifact checks before caching, so the stale
// render is discarded instead of being served forever.
func TestStorePutDuringRender(t *testing.T) {
	st := NewStore(func(_ context.Context, platform, artifact string) (Doc, error) {
		return *New(artifact).Append(NoteBlock("v1\n")), nil
	})
	// The in-flight fetch, as Artifact performs it on a cache miss.
	_, gen, err := st.doc(context.Background(), "baseline", "a")
	if err != nil {
		t.Fatal(err)
	}
	// A Put races in before the render result is cached.
	st.Put("baseline", *New("a").Append(NoteBlock("v2\n")))
	st.mu.Lock()
	current := st.docs[[2]string{"baseline", "a"}].gen
	st.mu.Unlock()
	if current == gen {
		t.Fatal("Put did not bump the generation; an in-flight stale render would be cached")
	}
	// The next Artifact serves the new document.
	if out, err := st.Artifact(context.Background(), "baseline", "a", FormatText); err != nil || out != "v2\n" {
		t.Errorf("Artifact after racing Put = %q, %v; want v2", out, err)
	}
}

// TestStoreWriteDir checks the artifact directory layout.
func TestStoreWriteDir(t *testing.T) {
	st := NewStore(func(_ context.Context, platform, artifact string) (Doc, error) {
		d := testDoc()
		d.Artifact = artifact
		return d, nil
	})
	dir := t.TempDir()
	paths, err := st.WriteDir(context.Background(), dir, "baseline", []string{"figure9", "table1"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		dir + "/figure9.txt", dir + "/figure9.json", dir + "/figure9.csv",
		dir + "/table1.txt", dir + "/table1.json", dir + "/table1.csv",
	}
	if !reflect.DeepEqual(paths, want) {
		t.Errorf("paths = %v, want %v", paths, want)
	}
}
