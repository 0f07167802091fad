//go:build !race

// The race detector's instrumentation allocates on its own, so allocation
// counts are pinned only without it.

package netproto

import (
	"io"
	"testing"
)

// TestFrameEncodeAllocs: WriteFrame costs at most one allocation, the
// one buffer, and AppendFrame into a buffer with room costs none.
func TestFrameEncodeAllocs(t *testing.T) {
	f := Frame{CorrID: 1 << 20, Type: MsgResult, Payload: make([]byte, 300)}
	if allocs := testing.AllocsPerRun(100, func() { _ = WriteFrame(io.Discard, f) }); allocs > 1 {
		t.Errorf("WriteFrame: %v allocations, want at most 1", allocs)
	}
	buf := make([]byte, 0, 512)
	if allocs := testing.AllocsPerRun(100, func() { buf = AppendFrame(buf[:0], f) }); allocs != 0 {
		t.Errorf("AppendFrame into a buffer with room: %v allocations, want 0", allocs)
	}
}
