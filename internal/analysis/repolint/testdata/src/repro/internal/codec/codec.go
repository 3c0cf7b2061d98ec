// Package codec is a type stub for the poolalias golden tests: the
// pooled Buffer with its Release contract and the borrowing MsgView
// accessors, signature-compatible with the real package.
package codec

// Buffer is a pooled byte buffer.
type Buffer struct{ B []byte }

// GetBuffer acquires a buffer from the pool.
func GetBuffer() *Buffer { return &Buffer{} }

// Release returns the buffer to the pool.
func (b *Buffer) Release() {}

// MsgView is a zero-copy view over an encoded message.
type MsgView struct{ raw []byte }

// Name returns the message name, aliasing the input buffer.
func (v *MsgView) Name() []byte { return v.raw }

// Str returns a string field's bytes, aliasing the input buffer.
func (v *MsgView) Str(field string) ([]byte, bool) { return v.raw, true }

// Bytes returns a bytes field, aliasing the input buffer.
func (v *MsgView) Bytes(field string) ([]byte, bool) { return v.raw, true }

// Raw returns the field's raw encoding, aliasing the input buffer.
func (v *MsgView) Raw(field string) ([]byte, bool) { return v.raw, true }

// RecordView returns a view over a nested record, aliasing the input.
func (v *MsgView) RecordView(field string) (MsgView, bool) { return *v, true }

// StrList returns an iterator over a string list, aliasing the input.
func (v *MsgView) StrList(field string) (StrIter, bool) { return StrIter{}, true }

// Uint returns an unsigned field by value.
func (v *MsgView) Uint(field string) (uint64, bool) { return 0, true }

// Fields materializes the view's fields (copying).
func (v *MsgView) Fields() (map[string]Value, error) { return nil, nil }

// StrIter walks a string list in place.
type StrIter struct{ rest []byte }

// Next returns the next element, aliasing the input buffer.
func (it *StrIter) Next() ([]byte, bool) { return it.rest, false }

// Value is the dynamically typed value the legacy plane traffics in.
type Value = any

// Message is a materialized name + fields pair.
type Message struct{ Name string }

// Encode returns the canonical encoding of v.
//
// Deprecated: stub of the deprecated reflective encoder.
func Encode(v Value) ([]byte, error) { return nil, nil }

// Decode decodes exactly one value.
//
// Deprecated: stub of the deprecated reflective decoder.
func Decode(data []byte) (Value, error) { return nil, nil }

// DecodeMessage parses a wire-form message.
//
// Deprecated: stub of the deprecated materializing parser.
func DecodeMessage(data []byte) (Message, error) { return Message{}, nil }

// Append encodes v into buf; it is a modern primitive, not legacy.
func Append(buf []byte, v Value) ([]byte, error) { return buf, nil }

// DecodePrefix decodes one value from the front of data; modern.
func DecodePrefix(data []byte) (Value, int, error) { return nil, 0, nil }

// ParseMessage returns a zero-copy view; the modern read plane.
func ParseMessage(data []byte) (MsgView, error) { return MsgView{}, nil }

// roundTrip exercises the deprecated surface from inside the package
// itself: the legacycodec scope test runs on this package and expects
// no diagnostics (internal/codec implements the legacy plane, so its
// own references are definitionally legal).
func roundTrip(v Value) (Value, error) {
	b, err := Encode(v)
	if err != nil {
		return nil, err
	}
	if _, err := DecodeMessage(b); err != nil {
		return nil, err
	}
	return Decode(b)
}
