package netproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"groupsafe/internal/core"
	"groupsafe/internal/workload"
)

func TestRequestRoundTrip(t *testing.T) {
	lvl := core.VerySafe
	cases := []core.Request{
		{},
		{ID: 42, ReadOnly: true, MinFreshness: 7, Ops: []workload.Op{{Item: 1}, {Item: 2}}},
		{ID: 43, ReadOnly: true, Safety: &lvl, MinFreshness: 3, Ops: []workload.Op{{Item: 5}}},
		{ID: 9, Safety: &lvl, Ops: []workload.Op{
			{Item: 3, Write: true, Value: -5},
			{Item: 0, Write: true, Value: 1 << 40},
			{Item: 7},
		}},
	}
	for i, want := range cases {
		got, err := DecodeRequest(AppendRequest(nil, want))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: got %+v want %+v", i, got, want)
		}
	}
}

// TestDecodeRequestRejectsUnknownFlags: a flag bit this build does not know
// may announce a field it cannot parse, so the request is refused rather
// than misread.  Bit 2 is the retired staleness bound, whose duration would
// otherwise be read as MinFreshness.
func TestDecodeRequestRejectsUnknownFlags(t *testing.T) {
	for _, flag := range []uint64{1 << 2, 1 << 3, 1 << 40} {
		buf := binary.AppendUvarint(nil, 1)   // ID
		buf = binary.AppendUvarint(buf, flag) // flags
		buf = binary.AppendUvarint(buf, 5)    // the flag's field, or MinFreshness
		buf = binary.AppendUvarint(buf, 0)    // MinFreshness, or the op count
		buf = binary.AppendUvarint(buf, 0)    // op count, or trailing
		if req, err := DecodeRequest(buf); err == nil {
			t.Errorf("flag %#x decoded as %+v, want an error", flag, req)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	want := core.Result{
		TxnID:      77,
		Outcome:    core.OutcomeCommitted,
		ReadValues: map[int]int64{1: -9, 4: 12},
		Delegate:   "127.0.0.1:9001",
		Level:      core.Safety2,
		CommitLSN:  5,
		Freshness:  31,
	}
	got, err := DecodeResult(AppendResult(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestInfoRoundTrip(t *testing.T) {
	want := ServerInfo{
		ID:             "r1",
		Crashed:        true,
		ViewID:         3,
		ViewMembers:    []string{"r1", "r3"},
		LastAppliedSeq: 88,
		DurableLSN:     41,
		Items:          []ItemState{{Value: -1, Version: 2}, {Value: 100, Version: 0}},
	}
	got, err := DecodeInfo(AppendInfo(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v want %+v", got, want)
	}
}

func TestErrorCodesPreserveSentinels(t *testing.T) {
	for _, sentinel := range []error{
		core.ErrCrashed, core.ErrTimeout,
		core.ErrSafetyUnavailable, core.ErrComputeNotReplicable,
		core.ErrReadOnlyWrites, core.ErrNotFound,
	} {
		wrapped := fmt.Errorf("context: %w", sentinel)
		back := DecodeError(AppendError(nil, wrapped))
		if !errors.Is(back, sentinel) {
			t.Errorf("sentinel %v did not survive the wire: %v", sentinel, back)
		}
	}
	generic := DecodeError(AppendError(nil, errors.New("disk on fire")))
	var re *RemoteError
	if !errors.As(generic, &re) || re.Code != CodeGeneric {
		t.Fatalf("generic error = %#v", generic)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{CorrID: 1, Type: MsgExec, Payload: []byte("abc")},
		{CorrID: 1 << 50, Type: MsgInfo},
		{CorrID: 2, Type: MsgResult, Payload: make([]byte, 100000)},
	}
	var buf bytes.Buffer
	if err := WriteHandshake(&buf); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	if err := ReadHandshake(r); err != nil {
		t.Fatal(err)
	}
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.CorrID != want.CorrID || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestHandshakeRejectsForeignProtocols(t *testing.T) {
	if err := ReadHandshake(bytes.NewReader([]byte("GSTP\x01"))); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("peer-transport magic accepted: %v", err)
	}
	if err := ReadHandshake(bytes.NewReader([]byte("GSCL\x63"))); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("wrong version accepted: %v", err)
	}
}
