package constellation

import (
	"math"
	"reflect"
	"testing"
)

func wireTestRecord() DiffRecord {
	return DiffRecord{
		T: 42.5, BaseT: 40.5,
		Added:        []LinkDelta{{A: 1, B: 2, OldQ: -1, NewQ: 7}},
		Removed:      []LinkDelta{{A: 3, B: 4, OldQ: 9, NewQ: -1}, {A: 5, B: 6, OldQ: 2, NewQ: -1}},
		DelayChanged: []LinkDelta{{A: 7, B: 8, OldQ: 3, NewQ: 4}},
		Activated:    []int32{10, 11},
		Deactivated:  []int32{12},
		CarriedPaths: 5, RepairedPaths: 2, RepairFallbacks: 1,
		Degraded: 2,
	}
}

func TestDiffWireRoundTrip(t *testing.T) {
	rec := wireTestRecord()
	payload := AppendRecordWire(nil, 17, &rec)
	gen, got, err := DecodeRecordWire(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 17 {
		t.Errorf("generation = %d, want 17", gen)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("decoded record differs:\n got %+v\nwant %+v", got, rec)
	}
}

func TestDiffWireRoundTripFull(t *testing.T) {
	rec := DiffRecord{T: 0, BaseT: math.NaN(), Full: true}
	payload := AppendRecordWire(nil, 1, &rec)
	gen, got, err := DecodeRecordWire(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || !got.Full {
		t.Errorf("gen=%d full=%v, want 1/true", gen, got.Full)
	}
	if !math.IsNaN(got.BaseT) {
		t.Errorf("BaseT = %v, want NaN", got.BaseT)
	}
	if !got.Empty() == rec.Empty() {
		t.Errorf("emptiness changed across the wire")
	}
}

func TestDiffWireRoundTripEmpty(t *testing.T) {
	rec := DiffRecord{T: 2, BaseT: 1}
	payload := AppendRecordWire(nil, 3, &rec)
	_, got, err := DecodeRecordWire(payload)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Empty() {
		t.Errorf("empty record decoded non-empty: %+v", got)
	}
}

// TestDiffWireTruncation feeds every proper prefix of a valid payload to
// the decoder: all must fail cleanly, none may panic or over-read.
func TestDiffWireTruncation(t *testing.T) {
	rec := wireTestRecord()
	payload := AppendRecordWire(nil, 9, &rec)
	for i := 0; i < len(payload); i++ {
		if _, _, err := DecodeRecordWire(payload[:i]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", i, len(payload))
		}
	}
}

func TestDiffWireTrailingBytes(t *testing.T) {
	rec := wireTestRecord()
	payload := AppendRecordWire(nil, 9, &rec)
	if _, _, err := DecodeRecordWire(append(payload, 0xEE)); err == nil {
		t.Fatal("trailing byte not rejected")
	}
}

// TestDiffWireRejectsUnknownFlags pins the defect FuzzDecodeRecordWire
// found: a flags byte with bits beyond "full" must not decode, since the
// re-encoding would silently drop them.
func TestDiffWireRejectsUnknownFlags(t *testing.T) {
	rec := wireTestRecord()
	payload := AppendRecordWire(nil, 5, &rec)
	const flagsAt = 8 + 8 + 8
	for _, flags := range []byte{0x02, 0x03, 0x80} {
		corrupt := append([]byte(nil), payload...)
		corrupt[flagsAt] = flags
		if _, _, err := DecodeRecordWire(corrupt); err == nil {
			t.Errorf("flags %#02x decoded without error", flags)
		}
	}
}

// TestDiffWireCorruptCount pins the allocation bound: a huge element count
// in a short payload must be rejected, not honored with a giant make().
func TestDiffWireCorruptCount(t *testing.T) {
	rec := DiffRecord{T: 1, BaseT: 0}
	payload := AppendRecordWire(nil, 4, &rec)
	// The added-count field sits right after the fixed header.
	const hdr = 8 + 8 + 8 + 1 + 1 + 4 + 4 + 4
	corrupt := append([]byte(nil), payload...)
	corrupt[hdr] = 0xFF
	corrupt[hdr+1] = 0xFF
	corrupt[hdr+2] = 0xFF
	corrupt[hdr+3] = 0x7F
	if _, _, err := DecodeRecordWire(corrupt); err == nil {
		t.Fatal("corrupt element count not rejected")
	}
}

func TestDiffWireAppendReusesBuffer(t *testing.T) {
	rec := wireTestRecord()
	buf := make([]byte, 0, 1024)
	out := AppendRecordWire(buf, 1, &rec)
	if &out[0] != &buf[:1][0] {
		t.Error("encoder reallocated despite sufficient capacity")
	}
}
