package main

import "net/http"

// refNominalUs is the reference round trip, in microseconds, that the
// gated timings are scaled to: about what the reference server answered in
// on the 2-vCPU VM this benchmark was tuned on when that host ran fast.
const refNominalUs = 50.0

// serveReference runs the reference server on addr until the process is
// killed. It answers every request with an empty 200 and does no other
// work. The benchmark starts it as a second process beside the daemon, so
// that its round trip is what the host charges at that moment for the
// same net/http client and server code over loopback between two
// processes, with nothing of the program under test in it.
func serveReference(addr string) error {
	return http.ListenAndServe(addr, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
}
