package main

import (
	"testing"

	herald "repro"
	"repro/internal/config"
)

// TestParsePartition checks the -partition spec as -schedule-only
// consumes it: parsed by config.ParsePartition, then built into an HDA.
func TestParsePartition(t *testing.T) {
	parts, err := config.ParsePartition("nvdla:128:4, shi-diannao:896:12")
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 || parts[0].PEs != 128 || parts[1].BWGBps != 12 {
		t.Errorf("parts = %+v", parts)
	}
	if parts[0].Style != herald.NVDLA || parts[1].Style != herald.ShiDiannao {
		t.Error("styles wrong")
	}
	if _, err := herald.NewHDA("cli", herald.Edge, parts); err != nil {
		t.Errorf("parsed partition not buildable: %v", err)
	}
	for _, bad := range []string{"nvdla:128", "tpu:128:4", "nvdla:x:4", "nvdla:128:y"} {
		if _, err := config.ParsePartition(bad); err == nil {
			t.Errorf("%q: accepted", bad)
		}
	}
}
