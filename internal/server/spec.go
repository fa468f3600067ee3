package server

import (
	"encoding/json"
	"fmt"

	"riotshare/internal/prog"
	"riotshare/internal/storage"
)

// ProgramSpec is the JSON form of the statement-builder API (the paper's
// user-defined-operator path, §2): arrays, loop-nest statements with
// parametric ranges, guarded affine block accesses, and kernels. A spec
// submitted to the multi-query server is built into a prog.Program and
// optimized like any named benchmark program.
type ProgramSpec struct {
	Name   string           `json:"name"`
	Params []string         `json:"params,omitempty"`
	Bind   map[string]int64 `json:"bind,omitempty"`
	Arrays []ArraySpec      `json:"arrays"`
	Stmts  []StmtSpec       `json:"stmts"`
}

// ArraySpec declares one blocked array.
type ArraySpec struct {
	Name      string `json:"name"`
	BlockRows int    `json:"blockRows"`
	BlockCols int    `json:"blockCols"`
	GridRows  int    `json:"gridRows"`
	GridCols  int    `json:"gridCols"`
	// LogicalBlockBytes defaults to the physical block size when omitted.
	LogicalBlockBytes int64 `json:"logicalBlockBytes,omitempty"`
	Transient         bool  `json:"transient,omitempty"`
}

// ExprSpec is an affine expression: sum of terms (variable or parameter
// name times coefficient) plus a constant.
type ExprSpec struct {
	Terms map[string]int64 `json:"terms,omitempty"`
	K     int64            `json:"k,omitempty"`
}

// RangeSpec bounds one loop variable: lo <= var < hi.
type RangeSpec struct {
	Var string   `json:"var"`
	Lo  ExprSpec `json:"lo"`
	Hi  ExprSpec `json:"hi"`
}

// CondSpec guards an access: expr >= 0, or expr == 0 when Eq.
type CondSpec struct {
	Expr ExprSpec `json:"expr"`
	Eq   bool     `json:"eq,omitempty"`
}

// AccessSpec is one guarded affine block access.
type AccessSpec struct {
	Type  string     `json:"type"` // "read" or "write"
	Array string     `json:"array"`
	Row   ExprSpec   `json:"row"`
	Col   ExprSpec   `json:"col"`
	When  []CondSpec `json:"when,omitempty"`
}

// StmtSpec is one statement; NewNest starts a new top-level loop nest
// (statements default into the current nest, defining the original
// schedule's textual order).
type StmtSpec struct {
	Name     string       `json:"name"`
	Vars     []string     `json:"vars,omitempty"`
	NewNest  bool         `json:"newNest,omitempty"`
	Ranges   []RangeSpec  `json:"ranges,omitempty"`
	Accesses []AccessSpec `json:"accesses"`
	Kernel   string       `json:"kernel,omitempty"`
	Note     string       `json:"note,omitempty"`
}

func (e ExprSpec) expr() prog.Expr {
	terms := make(map[string]int64, len(e.Terms))
	for k, v := range e.Terms {
		terms[k] = v
	}
	return prog.Expr{Terms: terms, K: e.K}
}

// validate checks name references so Build never trips the builder API's
// panics on malformed client input.
func (sp *ProgramSpec) validate() error {
	if sp.Name == "" {
		return fmt.Errorf("spec: program name required")
	}
	if len(sp.Stmts) == 0 {
		return fmt.Errorf("spec: at least one statement required")
	}
	params := map[string]bool{}
	for _, p := range sp.Params {
		params[p] = true
	}
	arrays := map[string]bool{}
	for _, a := range sp.Arrays {
		// Array names become store file names under the store root.
		if err := storage.CheckArrayName(a.Name); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if arrays[a.Name] {
			return fmt.Errorf("spec: duplicate array %q", a.Name)
		}
		if a.BlockRows <= 0 || a.BlockCols <= 0 || a.GridRows <= 0 || a.GridCols <= 0 {
			return fmt.Errorf("spec: array %q needs positive block and grid dimensions", a.Name)
		}
		arrays[a.Name] = true
	}
	for _, p := range sp.Params {
		if _, ok := sp.Bind[p]; !ok {
			return fmt.Errorf("spec: parameter %q unbound (the server executes bound programs)", p)
		}
	}
	for bound := range sp.Bind {
		if !params[bound] {
			return fmt.Errorf("spec: binding for unknown parameter %q", bound)
		}
	}
	for si, st := range sp.Stmts {
		if st.Name == "" {
			return fmt.Errorf("spec: statement %d has no name", si)
		}
		vars := map[string]bool{}
		for _, v := range st.Vars {
			if params[v] {
				return fmt.Errorf("spec: %s: loop variable %q shadows a parameter", st.Name, v)
			}
			vars[v] = true
		}
		known := func(e ExprSpec) error {
			for name := range e.Terms {
				if !vars[name] && !params[name] {
					return fmt.Errorf("spec: %s: unknown name %q in expression", st.Name, name)
				}
			}
			return nil
		}
		for _, rg := range st.Ranges {
			if !vars[rg.Var] {
				return fmt.Errorf("spec: %s: range over unknown variable %q", st.Name, rg.Var)
			}
			if err := known(rg.Lo); err != nil {
				return err
			}
			if err := known(rg.Hi); err != nil {
				return err
			}
		}
		writes := 0
		for _, ac := range st.Accesses {
			if ac.Type != "read" && ac.Type != "write" {
				return fmt.Errorf("spec: %s: access type %q (want read or write)", st.Name, ac.Type)
			}
			if !arrays[ac.Array] {
				return fmt.Errorf("spec: %s: access to unknown array %q", st.Name, ac.Array)
			}
			if ac.Type == "write" {
				writes++
			}
			if err := known(ac.Row); err != nil {
				return err
			}
			if err := known(ac.Col); err != nil {
				return err
			}
			for _, cd := range ac.When {
				if err := known(cd.Expr); err != nil {
					return err
				}
			}
		}
		if writes > 1 {
			return fmt.Errorf("spec: %s: more than one write access (unsupported, §4.1)", st.Name)
		}
	}
	return nil
}

// Build constructs the program. The spec must bind every parameter; the
// server only executes bound programs.
func (sp *ProgramSpec) Build() (*prog.Program, error) {
	if err := sp.validate(); err != nil {
		return nil, err
	}
	p := prog.New(sp.Name, sp.Params...)
	for _, a := range sp.Arrays {
		p.AddArray(&prog.Array{
			Name:      a.Name,
			BlockRows: a.BlockRows, BlockCols: a.BlockCols,
			GridRows: a.GridRows, GridCols: a.GridCols,
			LogicalBlockBytes: a.LogicalBlockBytes,
			Transient:         a.Transient,
		})
	}
	for _, stSpec := range sp.Stmts {
		if stSpec.NewNest {
			p.NewNest()
		}
		st := p.NewStatement(stSpec.Name, stSpec.Vars...)
		for _, rg := range stSpec.Ranges {
			st.Range(rg.Var, rg.Lo.expr(), rg.Hi.expr())
		}
		for _, ac := range stSpec.Accesses {
			t := prog.Read
			if ac.Type == "write" {
				t = prog.Write
			}
			var conds []prog.Cond
			for _, cd := range ac.When {
				if cd.Eq {
					conds = append(conds, prog.EQ(cd.Expr.expr()))
				} else {
					conds = append(conds, prog.GE(cd.Expr.expr()))
				}
			}
			st.AccessWhen(t, ac.Array, ac.Row.expr(), ac.Col.expr(), conds)
		}
		if stSpec.Kernel != "" {
			st.SetKernel(stSpec.Kernel)
		}
		if stSpec.Note != "" {
			st.SetNote(stSpec.Note)
		}
	}
	for param, v := range sp.Bind {
		p.Bind(param, v)
	}
	return p, nil
}

// cacheKey is the spec's canonical JSON (struct field order makes it
// deterministic), used to key the server's plan cache.
func (sp *ProgramSpec) cacheKey() string {
	b, err := json.Marshal(sp)
	if err != nil {
		return fmt.Sprintf("spec:%s:unmarshalable", sp.Name)
	}
	return "spec:" + string(b)
}
