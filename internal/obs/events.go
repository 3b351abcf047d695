package obs

import (
	"encoding/json"
	"fmt"
)

// EventKind classifies one adaptation record (see LedgerRecord).
type EventKind uint8

// Adaptation event kinds. Structural events (split, merge, tail fold)
// come from the adaptive zonemaps; arbitration events (disable,
// enable) from their cost model; lifecycle events from the engine.
const (
	EventSplit        EventKind = iota // a zone cut where its summary parts' verdicts change
	EventMerge                         // cold adjacent zones coalesced
	EventDisable                       // arbitration turned skipping off
	EventEnable                        // shadow probe turned skipping back on
	EventTailFold                      // append tail folded into zones
	EventSkipperBuilt                  // skipping metadata built on a column
	EventQuarantine                    // skipper failed (panic/corruption) and was dropped; column falls back to full scans
)

// eventKindNames is the one name table behind String, MarshalJSON and
// UnmarshalJSON: a kind added to the const block gets its name here and
// then both renders and parses.
var eventKindNames = [...]string{
	EventSplit:        "split",
	EventMerge:        "merge",
	EventDisable:      "disable",
	EventEnable:       "enable",
	EventTailFold:     "tail-fold",
	EventSkipperBuilt: "skipper-built",
	EventQuarantine:   "quarantine",
}

// NumEventKinds is the length of an array indexed by EventKind.
const NumEventKinds = len(eventKindNames)

// String names the kind.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// MarshalJSON renders the kind by name so record JSON is self-describing.
func (k EventKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON parses the name form, so clients of /adaptation
// can decode records back into the exported types.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for c, n := range eventKindNames {
		if n == name {
			*k = EventKind(c)
			return nil
		}
	}
	return fmt.Errorf("unknown event kind %q", name)
}
