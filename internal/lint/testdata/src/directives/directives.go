// Package directives exercises lint-allow parsing: unknown analyzers,
// missing reasons and allows that suppress nothing are findings in
// their own right, and stacked directives each suppress their own
// analyzer on the next statement.
package directives

import (
	"math/rand"
	"time"
)

func unknownAnalyzer() {
	//pushpull:lint-allow bogus this analyzer does not exist
	time.Sleep(1)
}

func missingReason() {
	//pushpull:lint-allow walltime
	time.Sleep(1)
}

func stacked() int {
	//pushpull:lint-allow walltime fixture stamp, not digested
	//pushpull:lint-allow globalrand fixture shuffle, re-sorted afterwards
	return int(time.Now().Unix()) + rand.Int()
}

func staleAllow() int {
	//pushpull:lint-allow globalrand the shuffle this excused is gone
	return 4
}
