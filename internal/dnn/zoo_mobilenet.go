package dnn

// MobileNetV2 builds the MobileNet-V2 classification network (Sandler
// et al.) at 224×224×3 input: a 3×3 stem, 17 inverted-residual blocks,
// a final 1×1 expansion to 1280 channels, and a 1000-way classifier.
// 53 compute layers, ~310 MMACs. The Table I object-detection backbone
// with the extreme channel-activation ratio spread (3/224 ≈ 0.013 at
// the stem, 1280/1 at the classifier input) and depth-wise layers that
// punish channel-parallel dataflows.
func MobileNetV2() *Model { return MobileNetV2Width(1) }

// MobileNetV1 builds the MobileNet-V1 classification network (Howard et
// al.) at 224×224×3: a 3×3 stem, 13 depth-wise-separable blocks
// (DW + PW each), and a 1000-way classifier. 28 compute layers,
// ~569 MMACs. Used by the MLPerf workload (Table II).
func MobileNetV1() *Model { return MobileNetV1Width(1) }

// mobileNetV1Trunk builds the MobileNet-V1 trunk (stem plus the 13
// depth-wise-separable blocks, no classifier) at the given square
// input resolution, with every output channel count scaled by width.
// The classifiers and the SSD-MobileNetV1 detector share it.
func mobileNetV1Trunk(name string, input int, width float64) *builder {
	b := newBuilder(name, 3, input, input)
	b.conv("stem", scaleChannels(32, width), 3, 2)
	type block struct {
		out, stride int
	}
	blocks := []block{
		{64, 1},
		{128, 2}, {128, 1},
		{256, 2}, {256, 1},
		{512, 2}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1},
		{1024, 2}, {1024, 1},
	}
	for i, bl := range blocks {
		b.dw("dw-b"+itoa(i+1), 3, bl.stride)
		b.pw("pw-b"+itoa(i+1), scaleChannels(bl.out, width), 1)
	}
	return b
}

// MobileNetV1Width builds MobileNet-V1 with a width multiplier
// (0 < width <= 1); MobileNetV1() is the width-1.0 instance.
func MobileNetV1Width(width float64) *Model {
	b := mobileNetV1Trunk(nameWithWidth("mobilenetv1", width), 224, width)
	b.globalPool()
	b.fc("fc1000", 1000)
	return b.model()
}

// MobileNetV2Width builds MobileNet-V2 with a width multiplier;
// MobileNetV2() is the width-1.0 instance.
func MobileNetV2Width(width float64) *Model {
	scale := func(ch int) int { return scaleChannels(ch, width) }
	b := newBuilder(nameWithWidth("mobilenetv2", width), 3, 224, 224)
	b.conv("stem", scale(32), 3, 2)
	// First block: no expansion (t=1).
	b.dw("dw-b1", 3, 1)
	b.pw("proj-b1", scale(16), 1)
	type group struct {
		n, out, stride int
	}
	// (repeat count, output channels, first-block stride) per the
	// MobileNetV2 paper's Table 2, expansion factor t=6 throughout.
	groups := []group{
		{2, 24, 2}, {3, 32, 2}, {4, 64, 2},
		{3, 96, 1}, {3, 160, 2}, {1, 320, 1},
	}
	blk := 1
	for _, g := range groups {
		out := scale(g.out)
		for i := 0; i < g.n; i++ {
			blk++
			stride := 1
			if i == 0 {
				stride = g.stride
			}
			entry := b.idx()
			residual := stride == 1 && b.c == out
			b.pw("expand-b"+itoa(blk), b.c*6, 1)
			b.dw("dw-b"+itoa(blk), 3, stride)
			b.pw("proj-b"+itoa(blk), out, 1)
			if residual {
				b.skipFrom(entry)
			}
		}
	}
	// The head does not scale below 1280 in the reference model.
	head := 1280
	if width > 1 {
		head = scaleChannels(head, width)
	}
	b.pw("head", head, 1)
	b.globalPool()
	b.fc("fc1000", 1000)
	return b.model()
}
