package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"
)

// fingerprints.txt records, per workload, spec seed and calibration
// seed, the fingerprint of the calibration's whole trajectory at the
// commit that added the benchmark. Lines are
// "<workload> <spec seed> <calibration seed> <fingerprint>".
//
//go:embed fingerprints.txt
var fingerprintsTxt string

var recorded = parseRecorded(fingerprintsTxt)

func recordKey(workload string, specSeed, calSeed int64) string {
	return fmt.Sprintf("%s %d %d", workload, specSeed, calSeed)
}

func parseRecorded(txt string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(txt, "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || strings.HasPrefix(line, "#") {
			continue
		}
		spec, err1 := strconv.ParseInt(f[1], 10, 64)
		cal, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			continue
		}
		out[recordKey(f[0], spec, cal)] = f[3]
	}
	return out
}
