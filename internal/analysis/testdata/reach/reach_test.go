package main

import (
	"testing"

	"reach/lib"
)

func TestDecodeKey(t *testing.T) {
	if decodeKey([]byte("k")) != "k" || (Stats{}).tested != 0 || testedVar != 0 || lib.TestedOnly != 1 {
		t.Fatal("decodeKey")
	}
}
