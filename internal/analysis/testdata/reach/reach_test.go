package main

import "testing"

func TestDecodeKey(t *testing.T) {
	if decodeKey([]byte("k")) != "k" || (Stats{}).tested != 0 || testedVar != 0 {
		t.Fatal("decodeKey")
	}
}
