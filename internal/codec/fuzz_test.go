package codec

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzCodecRoundTrip is the codec's wire-compatibility fuzz target, run
// bounded in CI (see .github/workflows/ci.yml, fuzz job):
//
//   - decoding arbitrary bytes must never panic, whichever walk is used
//     (the boxed decodeValue, ParseMessage, skipValue);
//   - any accepted input is canonical-after-one-trip: re-encoding the
//     decoded value must be byte-identical under both the dynamic
//     encoder (Append/AppendMessage) and the schema-compiled encoder,
//     and the boxed and view decode planes must agree — the view plane
//     being strictly stricter only about canonical key order.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustAppend(int64(-5)))
	f.Add(mustAppend(Record{"a": uint64(1), "b": List{"x", nil, true}}))
	seedMsg, _ := AppendMessage(nil, NewMessage("mw.event", Record{
		"topic": "t1", "name": "update", "fields": Record{"resid": "r1", "seq": int64(9)},
	}))
	f.Add(seedMsg)
	f.Add([]byte{tagRecord, 2, tagString, 1, 'a', tagNil, tagString, 1, 'a', tagNil})
	f.Add([]byte{tagList, 0xFF, 0xFF, 0xFF})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Never panic, all decode planes.
		v, decodeErr := decodeOne(data)
		_, _ = decodeMessage(data) //nolint:errcheck // errors expected

		// The structural walker must accept exactly what decodeValue
		// accepts.
		if n, err := skipValue(data, 0); (err == nil && n == len(data)) != (decodeErr == nil) {
			t.Fatalf("skipValue (%d, %v) disagrees with decodeValue %v on % x", n, err, decodeErr, data)
		}

		if decodeErr == nil {
			// Encode→decode→re-encode is byte-identical: one trip through
			// the decoder canonicalizes (sorts keys, collapses duplicates),
			// after which encoding is a fixed point.
			re1, err := Append(nil, v)
			if err != nil {
				t.Fatalf("re-encode of decoded value %#v failed: %v", v, err)
			}
			v2, err := decodeOne(re1)
			if err != nil {
				t.Fatalf("decode of re-encoded % x failed: %v", re1, err)
			}
			re2, err := Append(nil, v2)
			if err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(re1, re2) {
				t.Fatalf("encode→decode→re-encode not byte-identical:\n re1 %x\n re2 %x", re1, re2)
			}
		}

		// Message plane: the view parser accepts a subset of the boxed
		// decoder (it additionally rejects non-canonical key order, which
		// no encoder produces); on the shared accepted set both decode
		// identically, and accepted messages re-encode identically
		// through AppendMessage AND through a schema compiled from the
		// decoded shape.
		m, msgErr := decodeMessage(data)
		view, viewErr := ParseMessage(data)
		if viewErr == nil && msgErr != nil {
			t.Fatalf("ParseMessage accepted % x, decodeMessage rejected: %v", data, msgErr)
		}
		if msgErr == nil && viewErr != nil && !errors.Is(viewErr, ErrNonCanonical) {
			t.Fatalf("ParseMessage rejected boxed-accepted % x with %v (want ErrNonCanonical)", data, viewErr)
		}
		if msgErr == nil && viewErr == nil {
			re1, err := AppendMessage(nil, m)
			if err != nil {
				t.Fatalf("re-encode message failed: %v", err)
			}
			m2, err := decodeMessage(re1)
			if err != nil {
				t.Fatalf("decode of re-encoded message failed: %v", err)
			}
			re2, err := AppendMessage(nil, m2)
			if err != nil {
				t.Fatalf("second message re-encode failed: %v", err)
			}
			if !bytes.Equal(re1, re2) {
				t.Fatalf("message encode→decode→re-encode not byte-identical:\n re1 %x\n re2 %x", re1, re2)
			}
			vm, err := view.Message()
			if err != nil {
				t.Fatalf("view materialization failed on accepted message: %v", err)
			}
			if !sameEncoding(Value(vm.Fields), Value(m.Fields)) || vm.Name != m.Name {
				t.Fatalf("view materialized %v, boxed %v", vm, m)
			}
			// Schema-compiled encoding agrees with AppendMessage on
			// the canonicalized message. Wire-valid empty keys cannot name
			// schema fields; skip those shapes.
			names := make([]string, 0, len(m.Fields))
			for k := range m.Fields {
				if k == "" {
					return
				}
				names = append(names, k)
			}
			s := CompileSchema(m.Name, names...)
			e := s.Encoder(nil)
			for _, fn := range s.Fields() {
				e.Value(fn, m.Fields[fn])
			}
			se, err := e.Finish()
			if err != nil {
				t.Fatalf("schema re-encode failed: %v", err)
			}
			if !bytes.Equal(se, re1) {
				t.Fatalf("schema re-encode differs from AppendMessage:\ndynamic %x\nschema  %x", re1, se)
			}
		}
	})
}
