package codec

// Message materializes the whole view as a boxed Message: the test
// oracle that cross-checks the view plane against DecodeMessage.
func (v *MsgView) Message() (Message, error) {
	fields, err := v.Fields()
	if err != nil {
		return Message{}, err
	}
	return Message{Name: string(v.name), Fields: fields}, nil
}
