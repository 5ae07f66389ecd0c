package main

// golden holds, per workload, the digest of the canonical responses to the
// first goldenPrefix requests of seed 1 (the default seed). A change that
// alters any response field other than coalesced or session_owner fails the
// run.
var golden = map[string]string{
	"plan-hot":     "0e421126c400cdfb4984f4def56daf56bdba323d1bf623155b2b9b941645a2de",
	"plan-cold":    "0dca623a21d8eda880e69408078bdeb6bec1ca4ca162e9fb53a8c12e4b018e49",
	"session-wal":  "5726bd9d234928568d1a5231be223b726c33c45db018c6288dd6104d8ddebec2",
	"cluster-zipf": "e4636a8d2abb04062a63c63794b47c0e08f30c2efa50de6c4f52906477f926dd",
}
