package netproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"groupsafe/internal/core"
	"groupsafe/internal/workload"
)

var errTruncated = errors.New("netproto: truncated payload")

// --- Request ---

const (
	reqFlagReadOnly     = 1 << 0
	reqFlagHasSafety    = 1 << 1
	reqFlagHasStaleness = 1 << 2
)

// AppendRequest encodes a client transaction.  Compute hooks cannot cross the
// wire; callers must reject them before encoding (the closure is silently
// dropped here).
func AppendRequest(buf []byte, req core.Request) []byte {
	buf = binary.AppendUvarint(buf, req.ID)
	var flags uint64
	if req.ReadOnly {
		flags |= reqFlagReadOnly
	}
	if req.Safety != nil {
		flags |= reqFlagHasSafety
	}
	if req.MaxStaleness > 0 {
		flags |= reqFlagHasStaleness
	}
	buf = binary.AppendUvarint(buf, flags)
	if req.Safety != nil {
		buf = binary.AppendUvarint(buf, uint64(*req.Safety))
	}
	if req.MaxStaleness > 0 {
		buf = binary.AppendUvarint(buf, uint64(req.MaxStaleness))
	}
	buf = binary.AppendUvarint(buf, req.MinFreshness)
	buf = binary.AppendUvarint(buf, uint64(len(req.Ops)))
	for _, op := range req.Ops {
		b := byte(0)
		if op.Write {
			b = 1
		}
		buf = append(buf, b)
		buf = binary.AppendUvarint(buf, uint64(op.Item))
		if op.Write {
			buf = binary.AppendVarint(buf, op.Value)
		}
	}
	return buf
}

// DecodeRequest decodes a client transaction.
func DecodeRequest(data []byte) (core.Request, error) {
	d := decoder{data: data}
	var req core.Request
	req.ID = d.uvarint()
	flags := d.uvarint()
	req.ReadOnly = flags&reqFlagReadOnly != 0
	if flags&reqFlagHasSafety != 0 {
		lvl := core.SafetyLevel(d.uvarint())
		req.Safety = &lvl
	}
	if flags&reqFlagHasStaleness != 0 {
		req.MaxStaleness = time.Duration(d.uvarint())
	}
	req.MinFreshness = d.uvarint()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(data)) {
		return core.Request{}, errTruncated
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		var op workload.Op
		op.Write = d.byte() == 1
		op.Item = int(d.uvarint())
		if op.Write {
			op.Value = d.varint()
		}
		req.Ops = append(req.Ops, op)
	}
	return req, d.err
}

// --- Result ---

// AppendResult encodes a transaction outcome.
func AppendResult(buf []byte, res core.Result) []byte {
	buf = binary.AppendUvarint(buf, res.TxnID)
	buf = append(buf, byte(res.Outcome))
	buf = binary.AppendUvarint(buf, uint64(res.Level))
	buf = binary.AppendUvarint(buf, res.CommitLSN)
	buf = binary.AppendUvarint(buf, res.Freshness)
	buf = appendString(buf, res.Delegate)
	items := make([]int, 0, len(res.ReadValues))
	for it := range res.ReadValues {
		items = append(items, it)
	}
	sort.Ints(items)
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.AppendUvarint(buf, uint64(it))
		buf = binary.AppendVarint(buf, res.ReadValues[it])
	}
	return buf
}

// DecodeResult decodes a transaction outcome.
func DecodeResult(data []byte) (core.Result, error) {
	d := decoder{data: data}
	var res core.Result
	res.TxnID = d.uvarint()
	res.Outcome = core.Outcome(d.byte())
	res.Level = core.SafetyLevel(d.uvarint())
	res.CommitLSN = d.uvarint()
	res.Freshness = d.uvarint()
	res.Delegate = d.string()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(data)) {
		return core.Result{}, errTruncated
	}
	if n > 0 && d.err == nil {
		res.ReadValues = make(map[int]int64, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			it := int(d.uvarint())
			res.ReadValues[it] = d.varint()
		}
	}
	return res, d.err
}

// --- ServerInfo ---

// ItemState is one database item's committed value and version, shipped by
// the status RPC so external checkers (the chaos harness) can compare replica
// states without access to the process memory.
type ItemState struct {
	Value   int64
	Version uint64
}

// ServerInfo is the server status returned by MsgInfo: identity, current
// membership view, replication progress and the committed store fingerprint.
type ServerInfo struct {
	ID             string
	Crashed        bool
	ViewID         uint64
	ViewMembers    []string
	LastAppliedSeq uint64
	DurableLSN     uint64
	Items          []ItemState
}

// AppendInfo encodes a server status report.
func AppendInfo(buf []byte, info ServerInfo) []byte {
	buf = appendString(buf, info.ID)
	var crashed byte
	if info.Crashed {
		crashed = 1
	}
	buf = append(buf, crashed)
	buf = binary.AppendUvarint(buf, info.ViewID)
	buf = binary.AppendUvarint(buf, uint64(len(info.ViewMembers)))
	for _, m := range info.ViewMembers {
		buf = appendString(buf, m)
	}
	buf = binary.AppendUvarint(buf, info.LastAppliedSeq)
	buf = binary.AppendUvarint(buf, info.DurableLSN)
	buf = binary.AppendUvarint(buf, uint64(len(info.Items)))
	for _, it := range info.Items {
		buf = binary.AppendVarint(buf, it.Value)
		buf = binary.AppendUvarint(buf, it.Version)
	}
	return buf
}

// DecodeInfo decodes a server status report.
func DecodeInfo(data []byte) (ServerInfo, error) {
	d := decoder{data: data}
	var info ServerInfo
	info.ID = d.string()
	info.Crashed = d.byte() != 0
	info.ViewID = d.uvarint()
	n := d.uvarint()
	if d.err == nil && n > uint64(len(data)) {
		return ServerInfo{}, errTruncated
	}
	for i := uint64(0); i < n && d.err == nil; i++ {
		info.ViewMembers = append(info.ViewMembers, d.string())
	}
	info.LastAppliedSeq = d.uvarint()
	info.DurableLSN = d.uvarint()
	n = d.uvarint()
	if d.err == nil && n > uint64(len(data)) {
		return ServerInfo{}, errTruncated
	}
	if n > 0 && d.err == nil {
		info.Items = make([]ItemState, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			var it ItemState
			it.Value = d.varint()
			it.Version = d.uvarint()
			info.Items = append(info.Items, it)
		}
	}
	return info, d.err
}

// --- Errors ---

// Error codes carried by MsgError frames.  Known codes map back to the
// engine's sentinel errors on the client, so errors.Is works across the
// network exactly as it does in-process.  Code 3 is unassigned: it named
// the rejection of a replication mode that no longer exists, and it is not
// reused, so an old code never decodes as a different error.
const (
	CodeGeneric           byte = 0
	CodeCrashed           byte = 1
	CodeTimeout           byte = 2
	CodeSafetyUnavailable byte = 4
	CodeComputeNotRepl    byte = 5
	CodeReadOnlyWrites    byte = 6
	CodeNotFound          byte = 7
	CodeTooStale          byte = 8
	CodeSnapshotTooOld    byte = 9
)

var codeToSentinel = map[byte]error{
	CodeCrashed:           core.ErrCrashed,
	CodeTimeout:           core.ErrTimeout,
	CodeSafetyUnavailable: core.ErrSafetyUnavailable,
	CodeComputeNotRepl:    core.ErrComputeNotReplicable,
	CodeReadOnlyWrites:    core.ErrReadOnlyWrites,
	CodeNotFound:          core.ErrNotFound,
	CodeTooStale:          core.ErrTooStale,
	CodeSnapshotTooOld:    core.ErrSnapshotTooOld,
}

var sentinelToCode = []struct {
	err  error
	code byte
}{
	{core.ErrCrashed, CodeCrashed},
	{core.ErrTimeout, CodeTimeout},
	{core.ErrSafetyUnavailable, CodeSafetyUnavailable},
	{core.ErrComputeNotReplicable, CodeComputeNotRepl},
	{core.ErrReadOnlyWrites, CodeReadOnlyWrites},
	{core.ErrNotFound, CodeNotFound},
	{core.ErrTooStale, CodeTooStale},
	{core.ErrSnapshotTooOld, CodeSnapshotTooOld},
}

// CodeFor maps an engine error to its wire code (CodeGeneric if unknown).
func CodeFor(err error) byte {
	for _, s := range sentinelToCode {
		if errors.Is(err, s.err) {
			return s.code
		}
	}
	return CodeGeneric
}

// AppendError encodes an error as a MsgError payload.
func AppendError(buf []byte, err error) []byte {
	buf = append(buf, CodeFor(err))
	return appendString(buf, err.Error())
}

// RemoteError is an error reported by the server, carrying the original
// message text; Unwrap exposes the matching engine sentinel so errors.Is
// holds across the wire.
type RemoteError struct {
	Code byte
	Msg  string
}

// Error implements error.
func (e *RemoteError) Error() string { return "remote: " + e.Msg }

// Unwrap returns the engine sentinel for known codes (nil for CodeGeneric).
func (e *RemoteError) Unwrap() error { return codeToSentinel[e.Code] }

// DecodeError decodes a MsgError payload.
func DecodeError(data []byte) error {
	d := decoder{data: data}
	code := d.byte()
	msg := d.string()
	if d.err != nil {
		return fmt.Errorf("netproto: malformed error frame: %w", d.err)
	}
	return &RemoteError{Code: code, Msg: msg}
}

// --- decoding primitives ---

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

type decoder struct {
	data []byte
	pos  int
	err  error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data[d.pos:])
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data[d.pos:])
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.pos += n
	return v
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.pos >= len(d.data) {
		d.err = errTruncated
		return 0
	}
	b := d.data[d.pos]
	d.pos++
	return b
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.data)-d.pos) {
		d.err = errTruncated
		return ""
	}
	s := string(d.data[d.pos : d.pos+int(n)])
	d.pos += int(n)
	return s
}
