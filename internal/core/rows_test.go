package core

import (
	"math"
	"math/rand/v2"
)

// rowShape describes a seeded synthetic stream set for engine tests: width
// phase-shifted seasonal series of the given period, the first targets of
// which go missing after warm complete rows.
type rowShape struct {
	width, targets int
	period         int
	warm, n        int
	missing        float64 // long-run missing fraction of a target value
	meanRun        int     // mean missing-run length; ≤ 1 = i.i.d. gaps
}

// seasonalRows generates sh.n rows seeded by (seed, stream): per-column
// level, amplitude and phase, uniform noise, values rounded to two decimals
// like a real sensor feed, NaN for a missing value. With meanRun > 1, gaps
// come in runs of geometric length with that mean, for the same long-run
// missing fraction.
func seasonalRows(seed, stream uint64, sh rowShape) [][]float64 {
	rng := rand.New(rand.NewPCG(seed, stream))
	phase := make([]float64, sh.width)
	level := make([]float64, sh.width)
	amp := make([]float64, sh.width)
	base := rng.Float64() * 2 * math.Pi
	for c := range phase {
		phase[c] = base + 2*math.Pi*float64(c)/float64(sh.width) + 0.3*rng.Float64()
		level[c] = 10 + 20*rng.Float64()
		amp[c] = 2 + 6*rng.Float64()
	}
	runLeft := make([]int, sh.targets)
	missingNow := func(c int) bool {
		if sh.meanRun <= 1 {
			return rng.Float64() < sh.missing
		}
		if runLeft[c] > 0 {
			runLeft[c]--
			return true
		}
		p := sh.missing / ((1 - sh.missing) * float64(sh.meanRun))
		if rng.Float64() >= p {
			return false
		}
		run := 1
		for rng.Float64() < 1-1/float64(sh.meanRun) && run < 8*sh.meanRun {
			run++
		}
		runLeft[c] = run - 1
		return true
	}
	rows := make([][]float64, sh.n)
	for t := range rows {
		row := make([]float64, sh.width)
		ph := 2 * math.Pi * float64(t) / float64(sh.period)
		for c := range row {
			v := level[c] + amp[c]*math.Sin(ph+phase[c]) + 0.2*rng.Float64()
			row[c] = math.Round(100*v) / 100
		}
		if t >= sh.warm {
			for c := 0; c < sh.targets; c++ {
				if missingNow(c) {
					row[c] = math.NaN()
				}
			}
		}
		rows[t] = row
	}
	return rows
}
