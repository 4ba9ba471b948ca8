package dnn

// ssdHead appends the SSD extra feature layers and per-feature-map
// detection heads to a backbone builder. featMaps lists the (channels,
// rows) of each feature map used for prediction, in trunk order; the
// first entries reference backbone activations (modeled via setShape),
// the later ones are produced by the extra layers appended here.
// anchors is the per-location anchor count; classes the detector's
// class count (loc head predicts 4 box offsets per anchor).
func ssdHead(b *builder, extra []extraLayer, featMaps []featMap, anchors, classes int) {
	for i, e := range extra {
		b.pw("extra"+itoa(i+1)+"a", e.mid, 1)
		b.push(Layer{Name: "extra" + itoa(i+1) + "b", Op: Conv2D,
			K: e.out, C: b.c, Y: b.y, X: b.x, R: 3, S: 3, Stride: e.stride, Pad: e.pad})
	}
	for i, f := range featMaps {
		b.setShape(f.c, f.y, f.y)
		b.conv("loc"+itoa(i+1), anchors*4, 3, 1)
		b.setShape(f.c, f.y, f.y)
		b.conv("conf"+itoa(i+1), anchors*classes, 3, 1)
	}
}

type extraLayer struct {
	mid, out, stride, pad int
}

type featMap struct {
	c, y int
}

// SSDResNet34 builds the MLPerf-inference SSD-ResNet34 ("SSD-Large")
// object detector: a ResNet-34 trunk at 1200×1200 input, four extra
// feature stages, and six detection-head pairs over feature maps from
// 150×150 down to 3×3. 53 compute layers, dominated by the
// high-resolution backbone (~100 GMACs).
func SSDResNet34() *Model {
	b := resNetTrunk("ssd-resnet34", 1200, []int{3, 4, 6, 3})
	extra := []extraLayer{
		{256, 512, 2, 1},
		{256, 512, 2, 1},
		{128, 256, 2, 1},
		{128, 256, 2, 1},
	}
	// Feature maps: backbone C3 (38 rows at 1200/32≈38 after stage 4),
	// then the extra stages. MLPerf SSD-ResNet34 predicts from maps of
	// 50/25/13/7/4(≈3) rows at 1200 input; we use the shapes produced
	// by our trunk.
	feats := []featMap{
		{256, 75}, // backbone stage-3 output (1200/16)
		{512, 38}, // backbone stage-4 output
		{512, 19}, {512, 10}, {256, 5}, {256, 3},
	}
	ssdHead(b, extra, feats, 6, 81)
	return b.model()
}

// SSDMobileNetV1 builds the MLPerf-inference SSD-MobileNetV1
// ("SSD-Small") detector: a MobileNet-V1 trunk at 300×300 input, four
// extra feature stages, and six detection-head pairs from 19×19 down
// to 1×1. 47 compute layers, ~1.2 GMACs.
func SSDMobileNetV1() *Model {
	b := mobileNetV1Trunk("ssd-mobilenetv1", 300, 1)
	extra := []extraLayer{
		{256, 512, 2, 1},
		{128, 256, 2, 1},
		{128, 256, 2, 1},
		{64, 128, 2, 1},
	}
	feats := []featMap{
		{512, 19},  // backbone conv11 output
		{1024, 10}, // backbone conv13 output
		{512, 5}, {256, 3}, {256, 2}, {128, 1},
	}
	ssdHead(b, extra, feats, 6, 91)
	return b.model()
}
