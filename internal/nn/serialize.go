package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"extrapdnn/internal/mat"
)

// magic identifies the serialization format; the trailing digit is the
// format version.
var magic = [8]byte{'e', 'x', 'p', 'd', 'n', 'n', '0', '1'}

// Save writes the network in a compact little-endian binary format:
// magic, layer count, then per layer (in, out, activation, weights row-major,
// biases).
func (n *Network) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(len(n.Layers))); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	for _, l := range n.Layers {
		hdr := []int64{int64(l.In()), int64(l.Out()), int64(l.Act)}
		if err := binary.Write(bw, binary.LittleEndian, hdr); err != nil {
			return fmt.Errorf("nn: save: %w", err)
		}
		if err := writeFloats(bw, l.W.Data()); err != nil {
			return err
		}
		if err := writeFloats(bw, l.B); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if got != magic {
		return nil, fmt.Errorf("nn: load: bad magic %q", got)
	}
	var numLayers int64
	if err := binary.Read(br, binary.LittleEndian, &numLayers); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if numLayers < 1 || numLayers > 1024 {
		return nil, fmt.Errorf("nn: load: implausible layer count %d", numLayers)
	}
	net := &Network{}
	prevOut := -1
	for i := int64(0); i < numLayers; i++ {
		hdr := make([]int64, 3)
		if err := binary.Read(br, binary.LittleEndian, hdr); err != nil {
			return nil, fmt.Errorf("nn: load: layer %d header: %w", i, err)
		}
		in, out, act := int(hdr[0]), int(hdr[1]), Activation(hdr[2])
		if in < 1 || out < 1 || in > 1<<20 || out > 1<<20 {
			return nil, fmt.Errorf("nn: load: layer %d has implausible shape %dx%d", i, in, out)
		}
		if act < Tanh || act > ReLU {
			return nil, fmt.Errorf("nn: load: layer %d has unknown activation %d", i, int(act))
		}
		if prevOut != -1 && in != prevOut {
			return nil, fmt.Errorf("nn: load: layer %d input %d does not match previous output %d", i, in, prevOut)
		}
		prevOut = out
		wdata, err := readFloats(br, in*out)
		if err != nil {
			return nil, fmt.Errorf("nn: load: layer %d weights: %w", i, err)
		}
		b, err := readFloats(br, out)
		if err != nil {
			return nil, fmt.Errorf("nn: load: layer %d biases: %w", i, err)
		}
		// A NaN or ±Inf parameter poisons every downstream prediction the first
		// time it is multiplied in; reject the blob at the boundary instead
		// (registry blobs cross process and machine lifetimes).
		if j := firstNonFinite(wdata); j >= 0 {
			return nil, fmt.Errorf("nn: load: layer %d weight %d is not finite", i, j)
		}
		if j := firstNonFinite(b); j >= 0 {
			return nil, fmt.Errorf("nn: load: layer %d bias %d is not finite", i, j)
		}
		net.Layers = append(net.Layers, &Layer{
			W:   mat.NewFromData(in, out, wdata),
			B:   b,
			Act: act,
		})
	}
	return net, nil
}

// firstNonFinite returns the index of the first NaN or ±Inf element, or -1.
func firstNonFinite(fs []float64) int {
	for i, f := range fs {
		if !isFinite(f) {
			return i
		}
	}
	return -1
}

func writeFloats(w io.Writer, fs []float64) error {
	buf := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("nn: save floats: %w", err)
	}
	return nil
}

// readFloats reads n little-endian float64 values. It reads in bounded
// chunks and grows the result as the data arrives, so a corrupt header that
// claims a huge layer fails on the short read instead of first allocating
// the claimed size (up to 2^40 values).
func readFloats(r io.Reader, n int) ([]float64, error) {
	var buf [8 << 10]byte
	fs := make([]float64, 0, min(n, 1<<16))
	for len(fs) < n {
		k := min(n-len(fs), len(buf)/8)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:])))
		}
	}
	return fs, nil
}
