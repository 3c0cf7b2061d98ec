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

// Value is a dynamically typed codec value.
type Value = any
