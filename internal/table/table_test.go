package table

import (
	"strings"
	"testing"
)

func TestTableRenderAlignment(t *testing.T) {
	tb := New("demo", "name", "value")
	tb.AddRow("alpha", 1.0)
	tb.AddRow("b", 123.456)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "demo" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Fatalf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "-----") {
		t.Fatalf("separator = %q", lines[2])
	}
	// Columns aligned: "value" column starts at the same offset everywhere.
	off := strings.Index(lines[1], "value")
	if !strings.HasPrefix(lines[3][off:], "1") {
		t.Fatalf("misaligned row: %q", lines[3])
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		5:       "5",
		123.456: "123.5",
		12.34:   "12.34",
		0.1234:  "0.1234",
	}
	for in, want := range cases {
		if got := FormatFloat(in); got != want {
			t.Errorf("FormatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestRenderCSV(t *testing.T) {
	tb := New("t", "a", "b")
	tb.AddRow(1, 2.5)
	var b strings.Builder
	tb.RenderCSV(&b)
	want := "a,b\n1,2.50\n"
	if b.String() != want {
		t.Fatalf("csv = %q, want %q", b.String(), want)
	}
}
