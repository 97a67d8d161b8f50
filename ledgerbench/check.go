package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/vec"
)

// change is one tuple-level effect of an acknowledged write batch.
type change struct {
	id int
	t  vec.Sparse // nil deletes
}

// effects lists an acknowledged batch's changes, with the ids the server
// assigned to inserts.
func effects(r *record) []change {
	var out []change
	switch r.op.kind {
	case opUpdate:
		for i, t := range r.op.upd {
			res := r.mutate.Results[i]
			if res.Error != "" {
				continue
			}
			id := t.id
			if id < 0 {
				id = res.ID
			}
			out = append(out, change{id, t.t})
		}
	case opDelete:
		for i, id := range r.op.del {
			if r.mutate.Results[i].Error == "" {
				out = append(out, change{id, nil})
			}
		}
	}
	return out
}

// verdict is the outcome of checking a run's records.
type verdict struct {
	failed  int      // errors, refusals, failed write ops, wrong answers
	wrong   int      // answers that failed the oracle check
	samples []string // the first few failures, for the report
}

func (v *verdict) fail(wrong bool, format string, args ...any) {
	v.failed++
	if wrong {
		v.wrong++
	}
	if len(v.samples) < 5 {
		v.samples = append(v.samples, fmt.Sprintf(format, args...))
	}
}

// checkRecords checks every record against the oracle, which starts at
// the served tuples. Writes are applied in the order their answers
// arrived: batches in flight together touch disjoint ids (the clients
// claim their targets), so any order consistent with that is the
// serving order. A read is checked against the state holding every
// batch answered before it was sent, plus each prefix of the batches in
// flight while it was; it passes if one of those states gives its
// answer.
func checkRecords(o *oracle, recs []*record) verdict {
	var v verdict
	var writes, reads []*record
	for _, r := range recs {
		if r.op.kind.write() {
			if !r.ok() {
				v.fail(false, "%s %s: %v", r.op.kind, r.id, r.err)
				continue
			}
			for _, res := range r.mutate.Results {
				if res.Error != "" {
					v.fail(false, "%s %s: op on id %d: %s", r.op.kind, r.id, res.ID, res.Error)
					break
				}
			}
			if len(r.mutate.Results) != len(r.op.upd)+len(r.op.del) {
				v.fail(true, "%s %s: %d results for %d ops", r.op.kind, r.id, len(r.mutate.Results), len(r.op.upd)+len(r.op.del))
				continue
			}
			writes = append(writes, r)
			continue
		}
		reads = append(reads, r)
	}
	if len(writes) == 0 {
		checkParallel(o, reads, &v)
		return v
	}
	sort.SliceStable(writes, func(i, j int) bool { return writes[i].recv.Before(writes[j].recv) })
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].send.Before(reads[j].send) })

	applied := 0
	for _, r := range reads {
		if !r.ok() {
			v.fail(false, "%s %s: %v", r.op.kind, r.id, r.err)
			continue
		}
		for applied < len(writes) && writes[applied].recv.Before(r.send) {
			for _, c := range effects(writes[applied]) {
				o.set(c.id, c.t)
			}
			applied++
		}
		// Batches answered after this read was sent but sent before it
		// was answered are in doubt. They come from the other clients,
		// one at a time, so the read saw some prefix of them.
		var uncertain []*record
		for i, late := applied, 0; i < len(writes) && late < closedClients; i++ {
			w := writes[i]
			if w.recv.After(r.recv) {
				late++ // each client has at most one batch in flight
			}
			if w.send.Before(r.recv) {
				uncertain = append(uncertain, w)
			}
		}
		err := checkRead(o, r)
		var undo []change
		for _, w := range uncertain {
			if err == nil {
				break
			}
			for _, c := range effects(w) {
				undo = append(undo, change{c.id, o.set(c.id, c.t)})
			}
			err = checkRead(o, r)
		}
		for i := len(undo) - 1; i >= 0; i-- {
			o.set(undo[i].id, undo[i].t)
		}
		if err != nil {
			v.fail(true, "%s %s: %v", r.op.kind, r.id, err)
		}
	}
	for ; applied < len(writes); applied++ {
		for _, c := range effects(writes[applied]) {
			o.set(c.id, c.t)
		}
	}
	return v
}

// checkParallel checks reads against a fixed tuple set on every CPU.
func checkParallel(o *oracle, reads []*record, v *verdict) {
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, len(reads))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, or *oracle) {
			defer wg.Done()
			for i := w; i < len(reads); i += workers {
				if reads[i].ok() {
					errs[i] = checkRead(or, reads[i])
				}
			}
		}(w, o.reader())
	}
	wg.Wait()
	for i, r := range reads {
		switch {
		case !r.ok():
			v.fail(false, "%s %s: %v", r.op.kind, r.id, r.err)
		case errs[i] != nil:
			v.fail(true, "%s %s: %v", r.op.kind, r.id, errs[i])
		}
	}
}

func checkRead(o *oracle, r *record) error {
	if r.op.kind == opTopK {
		return o.checkTopK(r.op.q, r.op.k, r.topk)
	}
	return o.checkAnalyze(r.op.q, r.op.k, r.op.phi, r.analyze)
}
