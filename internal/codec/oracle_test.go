package codec

import (
	"bytes"
	"fmt"
)

// This file holds the boxed reference helpers the tests and
// FuzzCodecRoundTrip check the production walks against. They are built
// on decodeValue, the materializing walk behind MsgView.Fields and
// MsgView.Value.

// mustAppend encodes v into a fresh buffer and panics on error. Use it
// only with literals.
func mustAppend(v Value) []byte {
	b, err := Append(nil, v)
	if err != nil {
		panic(err)
	}
	return b
}

// decodeOne decodes exactly one value from data and fails with
// ErrTrailing if bytes remain. Integers decode as int64, unsigned
// integers as uint64.
func decodeOne(data []byte) (Value, error) {
	v, n, err := decodeValue(data, 0)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: %d of %d bytes consumed", ErrTrailing, n, len(data))
	}
	return v, nil
}

// decodeMessage is the boxed message decoder: it parses the wire form of
// AppendMessage into a Message. Unlike ParseMessage it tolerates
// non-canonical key order (later duplicates overwrite earlier ones).
func decodeMessage(data []byte) (Message, error) {
	nameV, n, err := decodeValue(data, 0)
	if err != nil {
		return Message{}, fmt.Errorf("decode message name: %w", err)
	}
	name, ok := nameV.(string)
	if !ok {
		return Message{}, fmt.Errorf("decode message: name is %T, not string", nameV)
	}
	fieldsV, m, err := decodeValue(data[n:], 0)
	if err != nil {
		return Message{}, fmt.Errorf("decode message %q fields: %w", name, err)
	}
	if n+m != len(data) {
		return Message{}, fmt.Errorf("decode message %q: %w", name, ErrTrailing)
	}
	fields, ok := fieldsV.(map[string]Value)
	if !ok {
		return Message{}, fmt.Errorf("decode message %q: fields are %T, not record", name, fieldsV)
	}
	return Message{Name: name, Fields: fields}, nil
}

// sameEncoding reports whether two values have identical canonical
// encodings; unencodable values are never equal.
func sameEncoding(a, b Value) bool {
	ea, errA := Append(nil, a)
	eb, errB := Append(nil, b)
	return errA == nil && errB == nil && bytes.Equal(ea, eb)
}

// Message materializes the whole view as a boxed Message, to compare the
// view plane against decodeMessage.
func (v *MsgView) Message() (Message, error) {
	fields, err := v.Fields()
	if err != nil {
		return Message{}, err
	}
	return Message{Name: string(v.name), Fields: fields}, nil
}
