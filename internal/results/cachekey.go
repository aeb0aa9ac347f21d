package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sort"
)

// CacheKey derives the provenance hash identifying one submission's design
// point: the quick flag (ProvenanceOf treats quick-only scenarios as
// default, so it must be named here explicitly), the experiment list, and
// each scenario cell's provenance (nil meaning the unmodified default).
// The hash is over canonical JSON — encoding/json emits struct fields in
// declaration order and map keys sorted — so two submissions describing
// the same design point always hash identically, regardless of the order
// overrides were specified in.
func CacheKey(quick bool, experiments []string, scenarios ...*Provenance) string {
	exps := append([]string(nil), experiments...)
	sort.Strings(exps)
	data, err := json.Marshal(struct {
		Quick       bool          `json:"quick"`
		Experiments []string      `json:"experiments"`
		Scenarios   []*Provenance `json:"scenarios"`
	}{quick, exps, scenarios})
	if err != nil {
		// The inputs are plain strings, bools and string maps; Marshal
		// cannot fail on them.
		panic("results: CacheKey marshal: " + err.Error())
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
