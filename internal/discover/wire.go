package discover

import "fmt"

// WireSchemaV1 versions every JSON document the toolkit emits: the three
// pipeline reports, the crtables/crprobe artifact bundles, and the
// discovery service's job API payloads. Consumers check the schema field
// before relying on field names; producers stamp it at report-construction
// time so it survives any marshal path (CLI, cache replay, job API).
//
// The v1 contract: all field names are snake_case, enums use their stable
// string tokens, and observability lives only under "stats" — stripping
// that one key yields the deterministic, worker-count-invariant identity
// of a report.
const WireSchemaV1 = "v1"

// tokenCodec is the JSON codec of an enum's stable string tokens: names[v]
// is value v's token, "" for a value with none. kind names the enum in
// errors, and Token renders a value without a token as fallback_<v>.
type tokenCodec[T ~uint8] struct {
	names          []string
	kind, fallback string
}

func (c tokenCodec[T]) token(v T) string {
	if int(v) < len(c.names) && c.names[v] != "" {
		return c.names[v]
	}
	return fmt.Sprintf("%s_%d", c.fallback, uint8(v))
}

func (c tokenCodec[T]) marshal(v T) ([]byte, error) {
	if int(v) >= len(c.names) || c.names[v] == "" {
		return nil, fmt.Errorf("marshal: invalid %s %d", c.kind, uint8(v))
	}
	return []byte(`"` + c.names[v] + `"`), nil
}

func (c tokenCodec[T]) unmarshal(b []byte, v *T) error {
	for i, name := range c.names {
		if name != "" && string(b) == `"`+name+`"` {
			*v = T(i)
			return nil
		}
	}
	return fmt.Errorf("unmarshal: unknown %s %s", c.kind, b)
}
