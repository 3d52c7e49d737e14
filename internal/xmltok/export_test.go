package xmltok

// BenchDoc is benchDoc for the package's external tests.
var BenchDoc = benchDoc
