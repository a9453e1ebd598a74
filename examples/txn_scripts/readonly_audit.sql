-- Configuration audit declared READ ONLY: every statement reads the
-- same snapshot without taking a single shared lock, so the audit can
-- run beside ECO write bursts (and the server rejects any DML inside
-- it).  The analyzer gives it no may-conflict edge.
BEGIN TRANSACTION READ ONLY;
SELECT l.left, l.right, l.eff_from, l.eff_to FROM link l WHERE l.right = 205;
SELECT a.obid, a.name, a.state FROM assy a WHERE a.obid IN (100, 101);
SELECT COUNT(*) FROM assy a WHERE a.checkedout = TRUE;
COMMIT;
