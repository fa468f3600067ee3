package codegen

import (
	"encoding/json"
	"io"

	"riotshare/internal/prog"
)

// ExportedPlan is the stable JSON form of a lowered plan: the execution
// order, per-access I/O actions, and buffering intervals. External tools
// (visualizers, replayers) can consume it without linking this library.
type ExportedPlan struct {
	Program string          `json:"program"`
	Params  []int64         `json:"params"`
	Events  []ExportedEvent `json:"events"`
	Holds   []ExportedHold  `json:"holds"`
}

// ExportedEvent is one scheduled statement instance.
type ExportedEvent struct {
	Stmt     string   `json:"stmt"`
	Instance []int64  `json:"instance"`
	Time     []int64  `json:"time"`
	Actions  []string `json:"actions"` // parallel to the statement's accesses
	Accesses []string `json:"accesses"`
}

// ExportedHold is one buffering interval.
type ExportedHold struct {
	Block      string `json:"block"`
	StartEvent int    `json:"startEvent"`
	EndEvent   int    `json:"endEvent"`
}

func actionName(a AccessAction) string {
	switch a {
	case DoIO:
		return "io"
	case FromMemory:
		return "memory"
	case Elided:
		return "elided"
	default:
		return "inactive"
	}
}

// Export converts the timeline to its JSON-serializable form.
func (tl *Timeline) Export() *ExportedPlan {
	out := &ExportedPlan{
		Program: tl.Prog.Name,
		Params:  tl.Params,
	}
	for i, ev := range tl.Events {
		ee := ExportedEvent{
			Stmt:     ev.St.Name,
			Instance: ev.X,
			Time:     ev.Time,
		}
		for ai, ac := range ev.St.Accesses {
			r, c := ac.BlockAt(ev.X, tl.Params)
			ee.Accesses = append(ee.Accesses, ac.Type.String()+" "+prog.BlockID{Array: ac.Array, R: r, C: c}.String())
			ee.Actions = append(ee.Actions, actionName(tl.Actions[i][ai]))
		}
		out.Events = append(out.Events, ee)
	}
	for _, h := range tl.Holds {
		out.Holds = append(out.Holds, ExportedHold{
			Block:      h.Block.String(),
			StartEvent: h.StartEvent,
			EndEvent:   h.EndEvent,
		})
	}
	return out
}

// WriteJSON streams the exported plan as indented JSON.
func (tl *Timeline) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl.Export())
}
