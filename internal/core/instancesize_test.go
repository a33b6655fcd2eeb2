package core_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestProtocolInstanceSizes keeps every UDC protocol's instance, relay or
// acknowledgement-driven, within its Go allocation size class.  A run
// allocates one instance per process, so a field that tips an instance into
// the next class costs every warm sweep seed, which TestSweepAllocPerSeed's
// per-seed bar is too coarse to notice.
func TestProtocolInstanceSizes(t *testing.T) {
	for _, c := range []struct {
		name    string
		factory sim.ProtocolFactory
		class   uintptr
	}{
		{"nudc", core.NewNUDC, 32},
		{"reliable", core.NewReliableUDC, 32},
		{"strong", core.NewStrongFDUDC, 48},
		{"quiescent", core.NewQuiescentUDC, 48},
		{"quorum", core.NewQuorumUDC(3), 48},
		{"tuseful", core.NewTUsefulUDC(3), 80}, // 72 bytes
	} {
		if size := reflect.TypeOf(c.factory(0, 6)).Elem().Size(); size > c.class {
			t.Errorf("%s: instance is %d bytes, past its %d-byte size class", c.name, size, c.class)
		}
	}
}
