package gen

import (
	"trusthmd/internal/em"
	"trusthmd/internal/feature"
)

// EMSizes are the default split sizes for the EM generalisation experiment
// (E1). The paper does not evaluate an EM dataset; sizes mirror the DVFS
// row of Table I so results are comparable.
var EMSizes = Sizes{Train: 2100, Test: 700, Unknown: 284}

// EMWithSizes generates an EM emission dataset with the given split sizes,
// following the same known/unknown application bucketing as the other
// substrates.
func EMWithSizes(seed int64, sizes Sizes) (Splits, error) {
	if err := sizes.Validate(); err != nil {
		return Splits{}, err
	}
	sensor, err := em.NewSensor(em.DefaultConfig())
	if err != nil {
		return Splits{}, err
	}
	return generate(source[em.Behavior, []float64]{
		name:    "em",
		dim:     feature.EMDim(sensor.Bands()),
		apps:    em.Apps(),
		meta:    func(a em.Behavior) (bool, int, string) { return a.Known, a.Label, a.Name },
		draw:    sensor.Observe,
		extract: feature.EMVector,
	}, seed, sizes)
}
