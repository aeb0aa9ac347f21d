package prof

import (
	"bytes"
	"strings"
	"testing"
)

func TestProfileAddAndEntries(t *testing.T) {
	p := New()
	s := p.Scope("XBW")
	s.Add(100, "host0", "cpu", "compute")
	s.Add(50, "host0", "cpu", "compute")
	s.Add(300, "host0", "nic", "dma")
	s.Add(0, "host0", "nic", "ignored")
	s.Add(-5, "host0", "nic", "ignored")

	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (zero/negative dropped)", p.Len())
	}
	es := p.Entries("XBW")
	if len(es) != 2 {
		t.Fatalf("Entries = %v", es)
	}
	if es[0].Stack != "XBW;host0;nic;dma" || es[0].Value != 300 {
		t.Errorf("top entry = %+v, want nic dma 300", es[0])
	}
	if es[1].Value != 150 {
		t.Errorf("cpu compute = %d, want accumulated 150", es[1].Value)
	}
	if got := p.Entries("XB"); len(got) != 0 {
		t.Errorf("prefix must match whole frames, got %v", got)
	}
}

func TestNilScopeIsNoop(t *testing.T) {
	var s *Scope
	s.Add(100, "a") // must not panic
	s = &Scope{}
	s.Add(100, "b") // scope without profile: also a no-op
}

func TestWriteFoldedDeterministic(t *testing.T) {
	build := func() *Profile {
		p := New()
		p.Scope("E1").Add(10, "b")
		p.Scope("E1").Add(20, "a")
		p.Scope("E2").Add(30, "c", "d")
		return p
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteFolded(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteFolded(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("two builds render differently")
	}
	want := "E1;a 20\nE1;b 10\nE2;c;d 30\n"
	if b1.String() != want {
		t.Errorf("folded output:\n%q\nwant:\n%q", b1.String(), want)
	}
}

func TestRenderTop(t *testing.T) {
	p := New()
	s := p.Scope("XLAT")
	s.Add(750, "host0", "nic", "dma")
	s.Add(250, "host0", "cpu", "spin")

	var buf bytes.Buffer
	p.RenderTop(&buf, "XLAT", 1)
	out := buf.String()
	if !strings.Contains(out, "1000 ns total") {
		t.Errorf("missing total: %q", out)
	}
	if !strings.Contains(out, "75.00%") || !strings.Contains(out, "host0;nic;dma") {
		t.Errorf("missing top entry: %q", out)
	}
	if strings.Contains(out, "cpu;spin") {
		t.Errorf("n=1 must truncate: %q", out)
	}

	buf.Reset()
	p.RenderTop(&buf, "NOPE", 5)
	if buf.Len() != 0 {
		t.Errorf("empty prefix must write nothing, got %q", buf.String())
	}
}
