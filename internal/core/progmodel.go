package core

import (
	"fmt"

	"vibe/internal/bench"
	"vibe/internal/via"
)

// reliabilityLevel converts the model bitmask index back to the VIA type.
func reliabilityLevel(lv uint8) via.ReliabilityLevel { return via.ReliabilityLevel(lv) }

// ClientServer is the programming-model micro-benchmark of §3.3.1: a
// synchronous request/reply transaction loop with a fixed request size and
// varying reply sizes, using two distinct buffers. It reports sustained
// transactions per second for each reply size (Figure 7).
func ClientServer(cfg Config, reqSize int, replySizes []int) (*bench.Series, error) {
	s := bench.NewSeries(
		fmt.Sprintf("%s %dB requests", cfg.Model.Name, reqSize),
		"response message size (bytes)", "transactions per second")
	for _, reply := range replySizes {
		r, err := roundTrip(cfg, reqSize, reply, true /* separate buffers */, XferOpts{})
		if err != nil {
			return s, fmt.Errorf("client-server req=%d reply=%d: %w", reqSize, reply, err)
		}
		s.Add(float64(reply), r.TPS)
	}
	return s, nil
}
