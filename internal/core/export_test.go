package core

// ForceBitmaps pins in's step-time intersections to the bitmap arm, so the
// package's external benchmarks can run it beside the cost model's picks.
func ForceBitmaps(in *Input) { in.bitmaps = bmForce }
