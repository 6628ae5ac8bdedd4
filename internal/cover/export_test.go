package cover

// OracleCheck exports the one-pass CovChk oracle to the external tests.
var OracleCheck = oracleCheck
