package main

import (
	"os"
	"path/filepath"
	"testing"

	"softsku/internal/knob"
)

func TestBuildInputFromFlags(t *testing.T) {
	in, err := buildInput("", "Web", "Skylake18", "hillclimb", "qps", "thp,shp", 9, 2500, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if in.Microservice != "Web" || in.Platform != "Skylake18" || in.Seed != 9 {
		t.Fatalf("parsed: %+v", in)
	}
	if in.AB.MaxSamples != 2500 {
		t.Fatalf("max-samples flag not applied: %d", in.AB.MaxSamples)
	}
	if in.Parallel != 4 {
		t.Fatalf("parallel flag not applied: %d", in.Parallel)
	}
	if !in.Twin {
		t.Fatal("twin flag not applied")
	}
	if len(in.Knobs) != 2 || in.Knobs[0] != knob.THP {
		t.Fatalf("knobs: %v", in.Knobs)
	}
}

func TestBuildInputFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tune.conf")
	if err := os.WriteFile(path, []byte("microservice = Ads1\nsweep = exhaustive\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := buildInput(path, "", "", "", "", "", 0, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if in.Microservice != "Ads1" {
		t.Fatalf("parsed: %+v", in)
	}
}

func TestBuildInputErrors(t *testing.T) {
	if _, err := buildInput("", "", "", "independent", "mips", "", 1, 0, 0, false); err == nil {
		t.Fatal("missing service must error")
	}
	if _, err := buildInput("/nonexistent/file", "", "", "", "", "", 1, 0, 0, false); err == nil {
		t.Fatal("missing file must error")
	}
	if _, err := buildInput("", "Web", "", "bogus", "mips", "", 1, 0, 0, false); err == nil {
		t.Fatal("bad sweep must error")
	}
}
