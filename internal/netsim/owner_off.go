//go:build !ownerdebug

package netsim

// ownerStamp is zero-size in the default build and its checks compile
// to nothing; -tags ownerdebug swaps in the asserting version
// (owner_on.go).
type ownerStamp struct{}

func (*ownerStamp) check(string) {}
func (*ownerStamp) take()        {}

// staleFlow is a no-op: a stale flow handle re-resolves (flow.go).
func staleFlow(string) {}
