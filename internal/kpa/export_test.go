package kpa

// ValueTwin returns a value-resident copy of run k — its pairs with each
// pointer resolved to value column valCol, in the same order — and
// destroys k.
func ValueTwin(k *KPA, valCol int, al Allocator) (*KPA, error) {
	defer k.Destroy()
	vals, err := k.values(0, k.Len(), valCol)
	if err != nil {
		return nil, err
	}
	v, err := FromValues(vals, k.resident, al)
	if err != nil {
		return nil, err
	}
	v.sorted = k.sorted
	return v, nil
}
