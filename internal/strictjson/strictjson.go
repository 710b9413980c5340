// Package strictjson decodes user-written JSON inputs (scenario specs,
// sweeps, studies, fault plans) strictly: a field the target type does
// not declare, or data after the one JSON value, is an error. A typo'd
// or retired field then fails loudly, naming itself, instead of being
// dropped while the run goes ahead with the default.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
)

// Unmarshal is json.Unmarshal that rejects unknown object fields and
// trailing data. Like json.Unmarshal it overlays the decoded fields onto
// whatever v already holds.
func Unmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
