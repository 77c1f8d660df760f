UPDATE sale SET amount = 9.75 WHERE id = 1;
UPDATE sale SET qty = 4, amount = 1.5 WHERE id = 10;
UPDATE shop SET kind = 'grocery' WHERE id = 3;
