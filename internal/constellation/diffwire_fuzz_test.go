package constellation

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeRecordWire hammers the diff record decoder a read replica
// runs on every frame of its upstream's binary /diff stream. The decoder
// must never panic, and a successful decode must be canonical: the
// record re-encodes to exactly the payload it came from, so no byte of
// the input (a flag bit, a trailing byte) is silently dropped.
func FuzzDecodeRecordWire(f *testing.F) {
	full := DiffRecord{T: 0, BaseT: math.NaN(), Full: true}
	empty := DiffRecord{T: 2, BaseT: 1}
	rich := wireTestRecord()
	for i, rec := range []*DiffRecord{&full, &empty, &rich} {
		payload := AppendRecordWire(nil, uint64(i+1), rec)
		f.Add(payload)
		f.Add(payload[:len(payload)-1])
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		gen, rec, err := DecodeRecordWire(payload)
		if err != nil {
			return
		}
		if enc := AppendRecordWire(nil, gen, &rec); !bytes.Equal(enc, payload) {
			t.Fatalf("decode/encode is not canonical:\n in %x\nout %x", payload, enc)
		}
	})
}
