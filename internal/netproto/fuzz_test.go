package netproto

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"groupsafe/internal/core"
	"groupsafe/internal/varint"
	"groupsafe/internal/workload"
)

// fuzzCodec checks a decoder of client or server input against the codec's
// rules: it never panics, an input that decodes re-encodes to itself, and
// every strict prefix of such an input fails.  The seeds are valid encodings.
func fuzzCodec[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte, seeds ...[]byte) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decode(data)
		if err != nil {
			return
		}
		if got := encode(v); !bytes.Equal(got, data) {
			t.Fatalf("%x decodes to %+v, which encodes to %x", data, v, got)
		}
		for cut := range data {
			if w, err := decode(data[:cut]); err == nil {
				t.Fatalf("%x truncated to %d bytes decodes to %+v", data, cut, w)
			}
		}
	})
}

func FuzzDecodeRequest(f *testing.F) {
	lvl := core.Safety2
	fuzzCodec(f, DecodeRequest, func(req core.Request) []byte { return AppendRequest(nil, req) },
		AppendRequest(nil, core.Request{ID: 300, Safety: &lvl, MinFreshness: 12, Ops: []workload.Op{{Item: 7}, {Item: 129, Write: true, Value: -70000}}}),
		AppendRequest(nil, core.Request{ID: 1, ReadOnly: true, Ops: []workload.Op{{Item: 2}}}))
}

func FuzzDecodeResult(f *testing.F) {
	fuzzCodec(f, DecodeResult, func(res core.Result) []byte { return AppendResult(nil, res) },
		AppendResult(nil, core.Result{TxnID: 4, Outcome: core.OutcomeCommitted, Level: core.GroupSafe, CommitLSN: 10,
			Freshness: 3, Delegate: "s1", ReadValues: map[int]int64{0: 1, 9: -2}}),
		AppendResult(nil, core.Result{Outcome: core.OutcomeAborted}))
}

func FuzzDecodeInfo(f *testing.F) {
	fuzzCodec(f, DecodeInfo, func(info ServerInfo) []byte { return AppendInfo(nil, info) },
		AppendInfo(nil, ServerInfo{ID: "r1", ViewID: 2, ViewMembers: []string{"r1", "r2", "r3"}, LastAppliedSeq: 5,
			DurableLSN: 4, Items: []ItemState{{Value: 1, Version: 1}, {Value: -7, Version: 300}}}),
		AppendInfo(nil, ServerInfo{ID: "r2", Crashed: true}))
}

// FuzzDecodeError re-encodes with the layout itself: AppendError takes the
// code from the error it is given, and a RemoteError's text gains a prefix.
func FuzzDecodeError(f *testing.F) {
	fuzzCodec(f, func(data []byte) (*RemoteError, error) {
		var re *RemoteError
		err := DecodeError(data)
		if !errors.As(err, &re) {
			return nil, err
		}
		return re, nil
	}, func(re *RemoteError) []byte { return varint.AppendString([]byte{re.Code}, re.Msg) },
		AppendError(nil, fmt.Errorf("txn 3: %w", core.ErrNotFound)), AppendError(nil, errors.New("")))
}
