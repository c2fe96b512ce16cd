package main

import (
	"strings"

	"repro/ftdse"
)

// flightOptions turns on the search flight recorder for traced solves.
func flightOptions() []ftdse.Option { return []ftdse.Option{ftdse.WithFlightRecorder(0)} }

// flightLayers reads the flight-recorder traces of the results: sweeps
// per solve, moves per sweep, and the median time per solve spent in
// each engine phase ("r1:sa" counts as sa).
func flightLayers(m metrics, results []*ftdse.Result) {
	var traces []*ftdse.Trace
	for _, r := range results {
		if r != nil && r.Trace != nil {
			traces = append(traces, r.Trace)
		}
	}
	flightTraceLayers(m, traces)
}

func flightTraceLayers(m metrics, traces []*ftdse.Trace) {
	var sweeps, moves float64
	phase := map[string][]float64{}
	for _, t := range traces {
		perSolve := map[string]float64{}
		enter := map[string]float64{}
		for _, ev := range t.Events {
			name := ev.Phase
			if i := strings.LastIndexByte(name, ':'); i >= 0 {
				name = name[i+1:]
			}
			switch ev.Kind {
			case ftdse.EventSweep:
				sweeps++
				moves += float64(ev.Moves)
			case ftdse.EventPhaseEnter:
				enter[ev.Phase] = ev.ElapsedMs
			case ftdse.EventPhaseExit:
				if at, ok := enter[ev.Phase]; ok {
					perSolve[name] += ev.ElapsedMs - at
				}
			}
		}
		for name, d := range perSolve {
			phase[name] = append(phase[name], d)
		}
	}
	m.set("core.sweeps_per_solve", ratio(sweeps, float64(len(traces))), "count")
	m.set("core.moves_per_sweep", ratio(moves, sweeps), "count")
	for _, p := range []string{"greedy", "tabu", "sa", "bus"} {
		m.set("core.phase_ms."+p, median(phase[p]), "ms")
	}
}
