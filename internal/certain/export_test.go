package certain

// Exported for the tests of package certain_test, which also run µ and µᵏ
// (internal/prob imports this package, so those tests cannot live in it).
var NullWorldsCorpus = nullWorldsCorpus

const PollInterval = pollInterval

// SharedRange returns opts with every null of the oracles' spaces on the
// shared Range instead of its column class's range.
func SharedRange(opts Options) Options {
	opts.sharedRange = true
	return opts
}
