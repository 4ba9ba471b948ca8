package dnn

// ResNet50 builds the ResNet-50 classification network (He et al.) at
// 224×224×3 input: a 7×7 stem, four bottleneck stages of [3,4,6,3]
// blocks, and a 1000-way FC classifier. 54 compute layers (53 conv +
// 1 FC), ~4.1 GMACs — the deep-channel classification workload of
// Table I (channel-activation ratio up to 2048/7 ≈ 292.6 before the
// classifier).
func ResNet50() *Model {
	b := newBuilder("resnet50", 3, 224, 224)
	b.conv("stem", 64, 7, 2)
	b.pool(2) // 3×3 max-pool stride 2

	type stage struct {
		blocks, mid, out, stride int
	}
	stages := []stage{
		{3, 64, 256, 1},
		{4, 128, 512, 2},
		{6, 256, 1024, 2},
		{3, 512, 2048, 2},
	}
	for si, st := range stages {
		for blk := 0; blk < st.blocks; blk++ {
			stride := 1
			if blk == 0 {
				stride = st.stride
			}
			entry := b.idx()
			inC, inY, inX := b.c, b.y, b.x
			b.pw(stageName("reduce", si, blk), st.mid, 1)
			b.conv(stageName("conv3", si, blk), st.mid, 3, stride)
			b.pw(stageName("expand", si, blk), st.out, 1)
			if blk == 0 {
				// Projection shortcut: 1×1 conv matching channels and
				// stride (counted as a compute layer, as in the
				// paper's 54-layer ResNet-50).
				proj := Layer{Name: stageName("proj", si, blk), Op: PWConv,
					K: st.out, C: inC, Y: inY, X: inX, R: 1, S: 1, Stride: stride}
				c, y, x := b.c, b.y, b.x
				b.push(proj)
				b.setShape(c, y, x) // main path continues from expand output
			} else if entry >= 0 {
				b.skipFrom(entry)
			}
		}
	}
	b.globalPool()
	b.fc("fc1000", 1000)
	return b.model()
}

// resNetTrunk builds the convolutional trunk of a basic-block ResNet
// (no classifier) at the given square input resolution: a 7×7 stem, a
// max-pool, and four stages of blocks[i] two-conv basic blocks with
// 64/128/256/512 channels, each stage after the first opening at
// stride 2. ResNet18 and ResNet34 add a classifier; the SSD-ResNet34
// detector adds its heads to the [3,4,6,3] trunk.
func resNetTrunk(name string, input int, blocks []int) *builder {
	b := newBuilder(name, 3, input, input)
	b.conv("stem", 64, 7, 2)
	b.pool(2)
	outs := []int{64, 128, 256, 512}
	for si, n := range blocks {
		for blk := 0; blk < n; blk++ {
			stride := 1
			if blk == 0 && si > 0 {
				stride = 2
			}
			entry := b.idx()
			b.conv(stageName("a", si, blk), outs[si], 3, stride)
			b.conv(stageName("b", si, blk), outs[si], 3, 1)
			if blk != 0 && entry >= 0 {
				b.skipFrom(entry)
			}
		}
	}
	return b
}

func stageName(kind string, stage, block int) string {
	return kind + "-s" + itoa(stage+1) + "b" + itoa(block+1)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [8]byte
	pos := len(buf)
	for i > 0 {
		pos--
		buf[pos] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[pos:])
}
