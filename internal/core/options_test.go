package core

import "testing"

func TestAdamOptimizerConverges(t *testing.T) {
	g := testGraph(t, 14)
	sgdOpt := fastOptions(31)
	adamOpt := sgdOpt
	adamOpt.Optimizer = "adam"

	_, stSGD, err := Build(g, sgdOpt)
	if err != nil {
		t.Fatal(err)
	}
	_, stAdam, err := Build(g, adamOpt)
	if err != nil {
		t.Fatal(err)
	}
	// Adam must converge to a comparable error (within 2x of SGD's) —
	// the ablation-optimizer experiment quantifies which wins where.
	if stAdam.Validation.MeanRel > 2*stSGD.Validation.MeanRel+0.01 {
		t.Fatalf("adam %.2f%% far above sgd %.2f%%",
			stAdam.Validation.MeanRel*100, stSGD.Validation.MeanRel*100)
	}
	t.Logf("sgd %.3f%% vs adam %.3f%%", stSGD.Validation.MeanRel*100, stAdam.Validation.MeanRel*100)
}

func TestOptimizerValidation(t *testing.T) {
	g := testGraph(t, 8)
	opt := fastOptions(32)
	opt.Optimizer = "rmsprop"
	if _, err := NewTrainer(g, opt); err == nil {
		t.Fatal("unknown optimizer accepted")
	}
}
