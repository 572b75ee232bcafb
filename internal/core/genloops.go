//go:build ignore

// genloops.go emits loops_gen.go: one copy of each hot scatter/probe loop per
// named operator, with the semiring's Add/Mul spelled out as direct
// expressions on a numeric- (or bool-) constrained element type parameter.
// That is the only form the Go compiler monomorphizes: interface-method
// calls on an operator type parameter stay dictionary calls, but plain
// arithmetic on a type-set-constrained parameter compiles to direct
// instructions and the accumulator accessor methods inline around it.
//
// The loop bodies must mirror the generic kernels' numeric loops exactly
// (same structure, same operand order) so both paths are bit-identical —
// that equivalence is asserted by TestOpsEquivalence and by the kernels
// bench study. When changing a kernel's numeric loop, change the template
// here to match and re-run: go generate ./internal/core
//
// Operators that ignore an operand skip its load entirely (plus-pair loops
// never touch a.Val/b.Val), which is part of the speedup being generated.
//
// Two plus-pair loops depart from the generic structure, both through the
// counting mode of accum.MSA (NotAllowed = 0, Allowed = 1). The MSA
// numeric row (msaCountLoopPlusPair) is a branch-free counting scatter,
// value[j] += T(state[j]), instead of the three-way state switch, and the
// Inner probe (probeLoopPlusPair) sums acc += T(state[k]) over B's column
// instead of testing each key. Their output is still bit-identical: T is
// int64 or float64 and every count stays below 2^53, so each sum of ones
// is exact and is non-zero exactly when a contribution arrived, and the
// MSA gather runs in mask order as before.
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"text/template"
)

// combo describes one named operator: its element-type constraint, which
// multiply operands it reads, and how to spell its Add/Mul expressions.
type combo struct {
	Name       string
	Constraint string
	UsesAV     bool // Mul reads the A value
	UsesBV     bool // Mul reads the B value
	Counting   bool // MSA numeric row is the branch-free counting scatter
	MulDoc     string
	AddDoc     string
	mul        func(av, bv string) string
	add        func(x, y string) string
}

func plusAdd(x, y string) string { return x + " + " + y }

var combos = []combo{
	{"PlusTimes", "loopNumeric", true, true, false, "x * y", "x + y",
		func(av, bv string) string { return av + " * " + bv }, plusAdd},
	{"PlusPair", "loopNumeric", false, false, true, "1", "x + y",
		func(av, bv string) string { return "T(1)" }, plusAdd},
	{"PlusFirst", "loopNumeric", true, false, false, "x", "x + y",
		func(av, bv string) string { return av }, plusAdd},
	{"PlusSecond", "loopNumeric", false, true, false, "y", "x + y",
		func(av, bv string) string { return bv }, plusAdd},
	{"MinPlus", "loopNumeric", true, true, false, "x + y", "min(x, y)",
		func(av, bv string) string { return av + " + " + bv },
		func(x, y string) string { return "addMin(" + x + ", " + y + ")" }},
	{"MaxTimes", "loopNumeric", true, true, false, "x * y", "max(x, y)",
		func(av, bv string) string { return av + " * " + bv },
		func(x, y string) string { return "addMax(" + x + ", " + y + ")" }},
	{"OrAnd", "loopBool", true, true, false, "x && y", "x || y",
		func(av, bv string) string { return av + " && " + bv },
		func(x, y string) string { return x + " || " + y }},
}

const header = `// Code generated by genloops.go; DO NOT EDIT.

package core

import (
	"repro/internal/accum"
	"repro/internal/matrix"
)
`

// loopsTmpl emits the six loop shapes plus the opLoops constructor for one
// operator; a Counting operator gets the counting MSA row in place of the
// MSA scatter, and a counting Inner probe. {{p}} is the B-column position
// variable: "_" when the operator never reads B values, so the generated
// loop skips the value loads.
const loopsTmpl = `
// ----- {{.Name}}: Add(x, y) = {{.AddDoc}}; Mul(x, y) = {{.MulDoc}} -----
{{if .Counting}}
// msaCountLoop{{.Name}} is msaKernel.numericRow for a non-empty,
// non-complemented mask row as a branch-free counting scatter: allow each
// mask key with a zero count, add the state byte (Allowed = 1,
// NotAllowed = 0) for every flop, then gather the non-zero counts in mask
// order, resetting each key. It returns the row's output length.
func msaCountLoop{{.Name}}[T {{.Constraint}}](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index, mrow, col []Index, val []T) Index {
	state, value := acc.Arrays()
	for _, j := range mrow {
		state[j] = accum.Allowed
		value[j] = 0
	}
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
		for _, j := range b.Col[b.RowPtr[kcol]:b.RowPtr[kcol+1]] {
			value[j] += T(state[j])
		}
	}
	var cnt Index
	for _, j := range mrow {
		state[j] = accum.NotAllowed
		if c := value[j]; c != 0 {
			col[cnt] = j
			val[cnt] = c
			cnt++
		}
	}
	return cnt
}
{{- else}}

// msaLoop{{.Name}} is msaKernel.numericRow's scatter with {{.Name}} inlined.
func msaLoop{{.Name}}[T {{.Constraint}}](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
{{- if .UsesAV}}
		av := a.Val[kk]
{{- end}}
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
{{- if .UsesBV}}
		bVal := b.Val[bLo:bHi]
		bVal = bVal[:len(bCol)]
{{- end}}
		for {{p}}, j := range bCol {
			switch acc.State(j) {
			case accum.Allowed:
				acc.Store(j, {{mul "av" "bVal[p]"}})
			case accum.Set:
				acc.SetValue(j, {{add "acc.Value(j)" (mul "av" "bVal[p]")}})
			}
		}
	}
}
{{- end}}

// msaCLoop{{.Name}} is msaKernel.numericRowC's scatter with {{.Name}} inlined.
func msaCLoop{{.Name}}[T {{.Constraint}}](acc *accum.MSA[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
{{- if .UsesAV}}
		av := a.Val[kk]
{{- end}}
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
{{- if .UsesBV}}
		bVal := b.Val[bLo:bHi]
		bVal = bVal[:len(bCol)]
{{- end}}
		for {{p}}, j := range bCol {
			switch acc.State(j) {
			case accum.NotAllowed: // default-allowed under complement
				acc.StoreC(j, {{mul "av" "bVal[p]"}})
			case accum.Set:
				acc.SetValue(j, {{add "acc.Value(j)" (mul "av" "bVal[p]")}})
			}
		}
	}
}

// hashLoop{{.Name}} is hashKernel.numericRow's scatter with {{.Name}} inlined.
func hashLoop{{.Name}}[T {{.Constraint}}](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
{{- if .UsesAV}}
		av := a.Val[kk]
{{- end}}
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
{{- if .UsesBV}}
		bVal := b.Val[bLo:bHi]
		bVal = bVal[:len(bCol)]
{{- end}}
		for {{p}}, j := range bCol {
			slot, st := acc.Probe(j)
			switch st {
			case accum.Allowed:
				acc.StoreAt(slot, {{mul "av" "bVal[p]"}})
			case accum.Set:
				acc.SetValueAt(slot, {{add "acc.ValueAt(slot)" (mul "av" "bVal[p]")}})
			}
		}
	}
}

// hashCLoop{{.Name}} is hashKernel.numericRowC's scatter with {{.Name}} inlined.
func hashCLoop{{.Name}}[T {{.Constraint}}](acc *accum.Hash[T], a, b *matrix.CSR[T], i Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
{{- if .UsesAV}}
		av := a.Val[kk]
{{- end}}
		bLo, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		bCol := b.Col[bLo:bHi]
{{- if .UsesBV}}
		bVal := b.Val[bLo:bHi]
		bVal = bVal[:len(bCol)]
{{- end}}
		for {{p}}, j := range bCol {
			slot, st := acc.ProbeC(j)
			switch st {
			case accum.NotAllowed: // absent: allowed under complement
				acc.InsertNewAtC(slot, j, {{mul "av" "bVal[p]"}})
			case accum.Set:
				acc.SetValueAt(slot, {{add "acc.ValueAt(slot)" (mul "av" "bVal[p]")}})
			}
		}
	}
}

// mcaMergeLoop{{.Name}} is mcaKernel.numericRow's CSR merge walk with {{.Name}} inlined.
func mcaMergeLoop{{.Name}}[T {{.Constraint}}](acc *accum.MCA[T], a, b *matrix.CSR[T], i Index, mrow []Index) {
	for kk := a.RowPtr[i]; kk < a.RowPtr[i+1]; kk++ {
		kcol := a.Col[kk]
{{- if .UsesAV}}
		av := a.Val[kk]
{{- end}}
		bi, bHi := b.RowPtr[kcol], b.RowPtr[kcol+1]
		for idx, j := range mrow {
			for bi < bHi && b.Col[bi] < j {
				bi++
			}
			if bi >= bHi {
				break
			}
			if b.Col[bi] == j {
				if acc.State(Index(idx)) == accum.Set {
					acc.SetValue(Index(idx), {{add "acc.Value(Index(idx))" (mul "av" "b.Val[bi]")}})
				} else {
					acc.Store(Index(idx), {{mul "av" "b.Val[bi]"}})
				}
			}
		}
	}
}

// probeLoop{{.Name}} is innerKernel.probeDot with {{.Name}} inlined.
{{- if .Counting}} A
// scattered key's state byte is Allowed = 1, so each match adds it without
// a branch and the sum is the match count.
{{- end}}
func probeLoop{{.Name}}[T {{.Constraint}}](state []accum.State, value []T, amax Index, bIdx []Index, bVal []T) (T, bool) {
	var acc T
{{- if .Counting}}
	for _, k := range bIdx {
		if k > amax {
			break
		}
		acc += T(state[k])
	}
	return acc, acc != 0
{{- else}}
	found := false
{{- if .UsesBV}}
	bVal = bVal[:len(bIdx)]
{{- end}}
	for {{p}}, k := range bIdx {
		if k > amax {
			break
		}
		if state[k] != accum.Allowed {
			continue
		}
		v := {{mul "value[k]" "bVal[p]"}}
		if found {
			acc = {{add "acc" "v"}}
		} else {
			acc = v
			found = true
		}
	}
	return acc, found
{{- end}}
}

// opLoops{{.Name}} bundles the {{.Name}} loop set for element type T.
func opLoops{{.Name}}[T {{.Constraint}}]() opLoops[T] {
	return opLoops[T]{
{{- if .Counting}}
		msaCount:  msaCountLoop{{.Name}}[T],
{{- else}}
		msa:       msaLoop{{.Name}}[T],
{{- end}}
		msaC:      msaCLoop{{.Name}}[T],
		hash:      hashLoop{{.Name}}[T],
		hashC:     hashCLoop{{.Name}}[T],
		mcaMerge:  mcaMergeLoop{{.Name}}[T],
		innerProbe:  probeLoop{{.Name}}[T],
		innerNoAVal: {{not .UsesAV}},
	}
}
`

func main() {
	var buf bytes.Buffer
	buf.WriteString(header)
	for _, c := range combos {
		c := c
		funcs := template.FuncMap{
			"mul": c.mul,
			"add": c.add,
			"p": func() string {
				if c.UsesBV {
					return "p"
				}
				return "_"
			},
		}
		t := template.Must(template.New(c.Name).Funcs(funcs).Parse(loopsTmpl))
		if err := t.Execute(&buf, c); err != nil {
			fmt.Fprintln(os.Stderr, "genloops:", err)
			os.Exit(1)
		}
	}
	src, err := format.Source(buf.Bytes())
	if err != nil {
		fmt.Fprintln(os.Stderr, "genloops: format:", err)
		os.Stderr.Write(buf.Bytes())
		os.Exit(1)
	}
	if err := os.WriteFile("loops_gen.go", src, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "genloops:", err)
		os.Exit(1)
	}
}
