package certain

// Exported for the tests of package certain_test, which also run µ and µᵏ
// (internal/prob imports this package, so those tests cannot live in it).
var NullWorldsCorpus = nullWorldsCorpus

const PollInterval = pollInterval
