package provider

import "testing"

func TestExtendedRegistry(t *testing.T) {
	ext := Extended()
	if len(ext) != 5 {
		t.Fatalf("Extended() = %d models", len(ext))
	}
	names := map[string]bool{}
	for _, m := range ext {
		names[m.Name] = true
	}
	for _, want := range []string{"mvia", "bvia", "clan", "firmvia", "iba"} {
		if !names[want] {
			t.Errorf("missing %s", want)
		}
	}
	for _, name := range []string{"firmvia", "iba"} {
		m, err := ByNameExtended(name)
		if err != nil || m.Name != name {
			t.Errorf("ByNameExtended(%q) = %v, %v", name, m, err)
		}
		// Extended names must not leak into the calibrated set.
		if _, err := ByName(name); err == nil {
			t.Errorf("ByName accepted extended model %q", name)
		}
	}
	if _, err := ByNameExtended("nope"); err == nil {
		t.Error("unknown extended name accepted")
	}
}

func TestExtendedModelShapes(t *testing.T) {
	fv, ib := FIRMVIA(), IBA()
	// Both are fully offloaded: no host copies, NIC-resident tables, no
	// poll sweep — the behaviours that make bvia sensitive must be off.
	for _, m := range []*Model{fv, ib} {
		if m.HostCopies || m.PollSweep {
			t.Errorf("%s must be offloaded", m.Name)
		}
		if m.TranslationAt != TranslateAtNIC || m.TablesAt != TablesInNICMemory {
			t.Errorf("%s must keep tables on the adapter", m.Name)
		}
	}
	// IBA is the only extended model with RDMA read and all three
	// reliability levels.
	if !ib.SupportsRDMARead || !ib.Supports(2) {
		t.Error("iba must support RDMA read and reliable reception")
	}
	if fv.SupportsRDMARead {
		t.Error("firmvia does not support RDMA read")
	}
	// IBA's link outruns every 2001 interconnect.
	for _, m := range All() {
		if ib.Network.BandwidthBps <= m.Network.BandwidthBps {
			t.Errorf("iba link (%.2g) should outrun %s (%.2g)",
				ib.Network.BandwidthBps, m.Name, m.Network.BandwidthBps)
		}
	}
}

func TestNames(t *testing.T) {
	names := Names()
	want := []string{"mvia", "bvia", "clan", "firmvia", "iba"}
	if len(names) != len(want) {
		t.Fatalf("Names() = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, names[i], want[i])
		}
		if _, err := ByNameExtended(names[i]); err != nil {
			t.Fatalf("Names() entry %q does not resolve: %v", names[i], err)
		}
	}
}
