package eval

import (
	"math"
)

// CrossoverFromRows interpolates the noise level where the DNN accuracy
// curve crosses above the regression curve in the given bucket, from
// already-computed sweep rows. It returns NaN when the curves never cross
// inside the swept range, and the lowest level when the DNN already wins
// there.
func CrossoverFromRows(rows []SynthRow, bucket int) float64 {
	if bucket < 0 || bucket >= len(BucketThresholds) {
		bucket = len(BucketThresholds) - 1
	}
	for i := 1; i < len(rows); i++ {
		prevDiff := rows[i-1].DNNAcc[bucket] - rows[i-1].RegAcc[bucket]
		currDiff := rows[i].DNNAcc[bucket] - rows[i].RegAcc[bucket]
		if prevDiff < 0 && currDiff >= 0 {
			// Linear interpolation of the zero crossing.
			t := -prevDiff / (currDiff - prevDiff)
			return rows[i-1].Noise + t*(rows[i].Noise-rows[i-1].Noise)
		}
		if prevDiff >= 0 && i == 1 {
			return rows[0].Noise
		}
	}
	return math.NaN()
}
