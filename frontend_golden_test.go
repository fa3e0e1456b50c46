package vdsms

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"vdsms/internal/edit"
	"vdsms/internal/mpeg"
	"vdsms/internal/vframe"
	"vdsms/internal/workload"
)

// cellHash feeds the cell ids of clips, in order, into one SHA-256.
func cellHash(t *testing.T, det *Detector, clips ...vframe.Source) string {
	t.Helper()
	h := sha256.New()
	for _, src := range clips {
		var buf bytes.Buffer
		if _, err := mpeg.EncodeSource(&buf, src, 75, 1); err != nil {
			t.Fatal(err)
		}
		cells, err := det.pipeline.queryCells(0, &buf, new(frontEnd))
		if err != nil {
			t.Fatal(err)
		}
		var b [8]byte
		for _, c := range cells {
			binary.LittleEndian.PutUint64(b[:], c)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFrontEndCellGolden pins what the front end computes, MVC1 bytes to
// cell ids, as SHA-256 of the id sequence. The hashes were recorded at
// commit e40ca54, before decode, pooling and the facade loops were rebuilt
// around reused buffers: the benchmark corpus's generator at three seeds
// (stream, then each query), every robustness preset of internal/edit over
// one short, and copies at other resolutions, which pool through a
// different block geometry than the 12×10 stream (14×12 does not divide by
// the 3×3 grid, so blocks straddle regions). A mismatch means a float moved.
func TestFrontEndCellGolden(t *testing.T) {
	det, err := NewDetector(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	check := func(name, want string, clips ...vframe.Source) {
		t.Helper()
		if got := cellHash(t, det, clips...); got != want {
			t.Errorf("%s: cell ids drifted:\ngot  %s\nwant %s", name, got, want)
		}
	}

	seeds := []struct {
		seed int64
		want string
	}{
		{20080407, "43e320de97d4315b6efb7d152f829c99d6379bee25511bd25bfc912067ec711d"},
		{7, "99676af7e89d96322bbb2a6815a9103bdd582f3873fa2edf101eb2abe77c5c26"},
		{99, "9c2ff7dcdb45e5ae7b05c71a3cc1ef520a24a889c362e9e789b2e64e80ae9830"},
	}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, s := range seeds {
		wl := workload.Build(workload.Config{Seed: s.seed})
		clips := []vframe.Source{wl.Stream}
		for _, q := range wl.Queries {
			clips = append(clips, q.Video)
		}
		check(fmt.Sprintf("workload seed %d", s.seed), s.want, clips...)
	}

	const keyFPS = 2
	short := vframe.NewSynth(vframe.SynthConfig{W: 96, H: 80, FPS: keyFPS, NumFrames: 60, Seed: 22})
	decoy := vframe.NewSynth(vframe.SynthConfig{W: 96, H: 80, FPS: keyFPS, NumFrames: 136, Seed: 23})
	presetWant := map[string]string{
		"none/verbatim": "8a395739dc7f28f2fcdddf9cab56b3cec39af2b5f58aee5081bc47fc9c0d81f9",
		"speed/0.8x":    "5a1007391f6af7d0137ef0ad4c0b6150695740189803892fda2d2ea82f752a89",
		"speed/1.25x":   "8230c9be5b01595cdb53e467129c85d8fb3bbc701db722e69931dd7e7986d4eb",
		"speed/1.5x":    "8776744c8bb338639c5e649d0726f41b1627facfa88c9a20bcf6220ae178b33b",
		"fps/ntsc-pal":  "2eb6c64509c44bd8c008842fb0b26fcba93eeec714b3938ee173abd0f91299e6",
		"fps/pal-ntsc":  "8a395739dc7f28f2fcdddf9cab56b3cec39af2b5f58aee5081bc47fc9c0d81f9", // resampled back to 2/s: the verbatim frames
		"fps/half-rate": "19187c74de5a902516ecb5689199018339718f0be05d7f295df38d6aa9c513d6",
		"drop/5%":       "ff758372739faea12e1f37e78f9999aec6835449ccf4bd30c44dbb90049cb735",
		"drop/15%":      "652fe804bec0750451b15d23442289410784266864d14ee1df73b6956c09a974",
		"drop/30%":      "49d76a51b75785574da87de86381c36c48ffdc1441ecbda154bbcb3eebb369e5",
		"stutter/5%x1":  "bf6f531f0e2fa654944c3e8a98b410018cd299ded9648ca29ecef3f0cf87b36f",
		"stutter/10%x2": "54e439f9c805c04a4aa41d611d64306706d38747d21727f94cc19ae8d3e0eb9a",
		"reorder/10s":   "0a3c5037f5a8663537f56adc678bc2dee2561655d216184d5b1dc73fc9b42e7c",
		"reorder/5s":    "4813ca92f73d0417d1cfcc7b67db8aa5e5b9093b53f837b1a0e5ca523d0b574a",
		"reorder/2s":    "305c5f763deb8b69b07014482e6308196b42e217c8f0d1d26a576ad0c301d59c",
		"splice/8s+2s":  "102bedccacc20ad7308e31354cb670cf9dbc847d3cdd4c211f36f553de0afaea",
		"splice/5s+3s":  "5fbc1584548c52811b6ac1bef520a2117fa4c520a2f1b7adce775c37bdbdedef",
	}
	for _, fam := range append([]string{edit.FamilyNone}, edit.TemporalFamilies()...) {
		for i, p := range edit.TemporalPresets(fam) {
			a := p.Build(keyFPS, int64(22+i))
			a.Decoy = decoy
			out := a.Apply(short)
			if out.FPS() != keyFPS {
				out = edit.Resample(out, keyFPS)
			}
			name := fam + "/" + p.Name
			check(name, presetWant[name], out)
		}
	}

	// The paper's VS2 attack stops at its PAL-like intermediate here (the
	// workload conforms it back to the stream's geometry): 112×96 is 14×12
	// blocks.
	pal := edit.PaperAttack(22, 112, 96, keyFPS*25.0/29.97, 8).Apply(short)
	check("paper-attack 112x96", "0bb62213a68e658d45a3b45ee417cd868c2f9fd7f0e54155927dbeff5ffb76b1", pal)
	check("rescale 80x64", "6152f0e244ebec4ad16fc1cbceb78f590a6acf723c70ff65f4f2887c417dd5c6", edit.Rescale(short, 80, 64))
	check("rescale 160x112", "bdd9515935f71bad4b0531fb075fc0661d29323fe463665f3d76fa3b3128f741", edit.Rescale(short, 160, 112))
	check("crop 0.7", "67ff7420c778e8c84c57a3686d8475d70adb43ae2e4a249e6571818bece07251", edit.CenterCrop(short, 0.7))
}
