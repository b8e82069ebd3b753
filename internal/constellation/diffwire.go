package constellation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the binary wire form of one generation's DiffRecord: the
// payload the information service's /diff endpoint streams to subscribers
// that negotiate the compact encoding instead of JSON (read replicas, and
// any client that follows many generations). The layout follows the
// hostlink wire conventions — fixed little-endian fields, u32 element
// counts bounded against the remaining payload — but carries the full
// constellation-wide record rather than a shard-scoped slice of it, so a
// replica can re-serve the exact JSON documents the coordinator would.
//
//	u64 generation
//	f64 t | f64 baseT (NaN when full)
//	u8  flags (bit0: full) | u8 degraded
//	u32 carriedPaths | u32 repairedPaths | u32 repairFallbacks
//	u32 n + n × (i32 a, i32 b, i32 oldQ, i32 newQ)   added
//	u32 n + n × (i32 a, i32 b, i32 oldQ, i32 newQ)   removed
//	u32 n + n × (i32 a, i32 b, i32 oldQ, i32 newQ)   delayChanged
//	u32 n + n × i32                                   activated
//	u32 n + n × i32                                   deactivated
//
// Delays stay in netem delay-quantum units on the wire; consumers derive
// millisecond floats the same way the JSON encoder does, so a re-encoded
// JSON document is byte-identical to the coordinator's.

// diffWireFull is the flags bit marking a record with no usable base.
const diffWireFull uint8 = 1 << 0

var errDiffWireShort = errors.New("constellation: truncated diff record payload")

// AppendRecordWire appends the binary wire encoding of record r at
// generation gen to buf and returns the extended slice.
func AppendRecordWire(buf []byte, gen uint64, r *DiffRecord) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint64(buf, gen)
	buf = le.AppendUint64(buf, math.Float64bits(r.T))
	buf = le.AppendUint64(buf, math.Float64bits(r.BaseT))
	var flags uint8
	if r.Full {
		flags |= diffWireFull
	}
	buf = append(buf, flags, r.Degraded)
	buf = le.AppendUint32(buf, uint32(r.CarriedPaths))
	buf = le.AppendUint32(buf, uint32(r.RepairedPaths))
	buf = le.AppendUint32(buf, uint32(r.RepairFallbacks))
	buf = appendWireDeltas(buf, r.Added)
	buf = appendWireDeltas(buf, r.Removed)
	buf = appendWireDeltas(buf, r.DelayChanged)
	buf = appendWireIDs(buf, r.Activated)
	buf = appendWireIDs(buf, r.Deactivated)
	return buf
}

func appendWireDeltas(buf []byte, ds []LinkDelta) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(ds)))
	for _, d := range ds {
		buf = le.AppendUint32(buf, uint32(int32(d.A)))
		buf = le.AppendUint32(buf, uint32(int32(d.B)))
		buf = le.AppendUint32(buf, uint32(d.OldQ))
		buf = le.AppendUint32(buf, uint32(d.NewQ))
	}
	return buf
}

func appendWireIDs(buf []byte, ids []int32) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(len(ids)))
	for _, id := range ids {
		buf = le.AppendUint32(buf, uint32(id))
	}
	return buf
}

// wireReader walks a payload with a sticky truncation error, so decoders
// read every field and check once (the hostlink reader idiom).
type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.err = errDiffWireShort
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.err = errDiffWireShort
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.err = errDiffWireShort
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *wireReader) i32() int32   { return int32(r.u32()) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a u32 element count and bounds it against the bytes left,
// so a corrupt count cannot force a huge allocation.
func (r *wireReader) count(elemBytes int) int {
	n := int(r.u32())
	if r.err == nil && n*elemBytes > len(r.b)-r.off {
		r.err = errDiffWireShort
		return 0
	}
	return n
}

func (r *wireReader) deltas() []LinkDelta {
	n := r.count(16)
	if n == 0 {
		return nil
	}
	ds := make([]LinkDelta, 0, n)
	for i := 0; i < n; i++ {
		ds = append(ds, LinkDelta{
			A: int(r.i32()), B: int(r.i32()),
			OldQ: r.i32(), NewQ: r.i32(),
		})
	}
	return ds
}

func (r *wireReader) ids() []int32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	ids := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, r.i32())
	}
	return ids
}

// DecodeRecordWire decodes a payload produced by AppendRecordWire. The
// returned record shares no memory with the payload. The payload must
// contain exactly one record: trailing bytes are an error.
func DecodeRecordWire(payload []byte) (uint64, DiffRecord, error) {
	rd := &wireReader{b: payload}
	gen := rd.u64()
	var rec DiffRecord
	rec.T = rd.f64()
	rec.BaseT = rd.f64()
	flags := rd.u8()
	if rd.err == nil && flags&^diffWireFull != 0 {
		return 0, DiffRecord{}, fmt.Errorf("constellation: unknown diff record flags %#02x", flags)
	}
	rec.Full = flags&diffWireFull != 0
	rec.Degraded = rd.u8()
	rec.CarriedPaths = int(rd.u32())
	rec.RepairedPaths = int(rd.u32())
	rec.RepairFallbacks = int(rd.u32())
	rec.Added = rd.deltas()
	rec.Removed = rd.deltas()
	rec.DelayChanged = rd.deltas()
	rec.Activated = rd.ids()
	rec.Deactivated = rd.ids()
	if rd.err != nil {
		return 0, DiffRecord{}, rd.err
	}
	if rd.off != len(rd.b) {
		return 0, DiffRecord{}, fmt.Errorf("constellation: %d trailing diff record bytes", len(rd.b)-rd.off)
	}
	return gen, rec, nil
}
