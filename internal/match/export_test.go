package match

// StepsOf runs fn and returns the step count that the budget of the last
// search fn started ended on, or 0 if fn started none. It is not safe for
// concurrent use.
func StepsOf(fn func()) uint32 {
	var last *Budget
	budgetHook = func(b *Budget) { last = b }
	defer func() { budgetHook = nil }()
	fn()
	if last == nil {
		return 0
	}
	return last.Steps()
}
