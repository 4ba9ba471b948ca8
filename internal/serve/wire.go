package serve

// SubmitRequest is the POST /v1/requests body a fleet front end
// decodes (see internal/fleet): a Request plus transport options.
type SubmitRequest struct {
	Request

	// ArrivalCycle shadows Request.ArrivalCycle so the wire format
	// distinguishes an omitted field (nil: arrive "now") from an
	// explicit 0 (a deterministic cycle-0 arrival). Replay traces must
	// stay bit-reproducible, so an explicit 0 is honored verbatim.
	ArrivalCycle *int64 `json:"arrival_cycle,omitempty"`

	// Wait makes the call synchronous: the response carries the
	// final record instead of a queued acknowledgement.
	Wait bool `json:"wait,omitempty"` //herald:jsonzero absent and false both mean fire-and-forget on this input struct
}

// Normalize folds the wire-level arrival into the embedded Request:
// omitted means "now" (the engine's wall clock).
func (sr *SubmitRequest) Normalize() {
	if sr.ArrivalCycle != nil {
		sr.Request.ArrivalCycle = *sr.ArrivalCycle
	} else {
		sr.Request.ArrivalCycle = -1
	}
}
