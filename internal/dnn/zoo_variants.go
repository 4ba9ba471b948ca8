package dnn

// This file extends the zoo beyond the paper's nine evaluated networks
// with the standard variants a workload library needs in practice:
// width-scaled MobileNets (the MobileNet papers' width multiplier;
// zoo_mobilenet.go builds every width), the smaller ResNet
// classifiers, and the VGG-16 backbone the Focal-Length DepthNet
// encoder is based on. They let users compose custom workloads at
// different compute scales without leaving the library.

// ResNet18 builds the 18-layer basic-block ResNet classifier at
// 224×224×3 (17 convs + FC).
func ResNet18() *Model { return basicResNet("resnet18", []int{2, 2, 2, 2}) }

// ResNet34 builds the 34-layer basic-block ResNet classifier at
// 224×224×3 (33 convs + FC) — the classifier variant of the
// SSD-ResNet34 trunk.
func ResNet34() *Model { return basicResNet("resnet34", []int{3, 4, 6, 3}) }

func basicResNet(name string, blocks []int) *Model {
	b := resNetTrunk(name, 224, blocks)
	b.globalPool()
	b.fc("fc1000", 1000)
	return b.model()
}

// VGG16 builds the 16-layer VGG classifier at 224×224×3 (13 convs +
// 3 FC) — the encoder family behind the Focal-Length DepthNet.
func VGG16() *Model {
	b := newBuilder("vgg16", 3, 224, 224)
	cfg := []struct{ n, ch int }{{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512}}
	for si, st := range cfg {
		for i := 0; i < st.n; i++ {
			b.conv("conv"+itoa(si+1)+string(rune('a'+i)), st.ch, 3, 1)
		}
		b.pool(2)
	}
	b.fc("fc1", 4096)
	b.fc("fc2", 4096)
	b.fc("fc1000", 1000)
	return b.model()
}

// scaleChannels applies a width multiplier, rounding to the nearest
// multiple of 8 (the MobileNet convention), never below 8.
func scaleChannels(ch int, width float64) int {
	v := int(float64(ch)*width + 4)
	v -= v % 8
	if v < 8 {
		v = 8
	}
	return v
}

func nameWithWidth(base string, width float64) string {
	switch width {
	case 1.0:
		return base
	case 0.75:
		return base + "-0.75"
	case 0.5:
		return base + "-0.5"
	case 0.25:
		return base + "-0.25"
	}
	return base + "-w"
}

func init() {
	zooBuilders["resnet18"] = ResNet18
	zooBuilders["resnet34"] = ResNet34
	zooBuilders["vgg16"] = VGG16
	zooBuilders["mobilenetv1-0.5"] = func() *Model { return MobileNetV1Width(0.5) }
	zooBuilders["mobilenetv1-0.25"] = func() *Model { return MobileNetV1Width(0.25) }
	zooBuilders["mobilenetv2-0.5"] = func() *Model { return MobileNetV2Width(0.5) }
}
